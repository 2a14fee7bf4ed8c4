"""The benchmark's float64 golden and finite-difference checks, in tier-1.

cluebench/ stores the logits and input gradient of its seeded networks
(golden_{tiny,small}.npz) and checks them against a directional finite
difference. A change that moves a seeded draw or drops a gradient term
fails these checks, although every package test may still pass. These
tests read cluebench/ and change nothing in it.
"""

import hashlib

import numpy as np
import pytest

# 16-byte BLAKE2b of the bytes of every parameter of build(preset, 0), in
# params() order. The float64 golden check compares logits at 1e-8, which a
# 1-ulp flip of one float32 weight does not reach; this digest does.
PARAM_DIGESTS = {"tiny": "58916e1d3adb2b9cd4a06738e480f183",
                 "small": "04cb58c403b736b20e299bda9f588610"}


@pytest.mark.usefixtures("bench_root")
@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_seeded_network_matches_golden_and_finite_difference(preset):
    from cluebench import checks, model

    net64 = model.cast(model.build(model.PRESETS[preset], 0), np.float64)
    assert checks.check_golden(net64) == []
    assert checks.check_fd(net64)[0] == []


@pytest.mark.usefixtures("bench_root")
@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_seeded_float32_parameters_keep_their_bytes(preset):
    from cluebench import model

    digest = hashlib.blake2b(digest_size=16)
    for p in model.build(model.PRESETS[preset], 0).params():
        assert p.value.dtype == np.float32, p.name
        digest.update(p.value.tobytes())
    assert digest.hexdigest() == PARAM_DIGESTS[preset]
