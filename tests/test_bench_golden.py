"""The benchmark's float64 golden and finite-difference checks, in tier-1.

cluebench/ stores the logits and input gradient of its seeded networks
(golden_{tiny,small}.npz) and checks them against a directional finite
difference. A change that moves a seeded draw or drops a gradient term
fails these checks, although every package test may still pass. These
tests read cluebench/ and change nothing in it.
"""

import numpy as np
import pytest


@pytest.mark.usefixtures("bench_root")
@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_seeded_network_matches_golden_and_finite_difference(preset):
    from cluebench import checks, model

    net64 = model.cast(model.build(model.PRESETS[preset], 0), np.float64)
    assert checks.check_golden(net64) == []
    assert checks.check_fd(net64)[0] == []
