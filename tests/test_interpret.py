"""Trace and overlay file IO."""

import numpy as np
import pytest

from cluenet import gfc, icp, interpret
from cluenet.errors import FormatError


def _state(m, n):
    cols = np.zeros((1, n), dtype=np.int32)
    return gfc.ClusterState(
        centers_v=np.zeros((m, 2), dtype=np.float32), soft_sim=None,
        assignment=gfc.HardAssignment(cols, np.ones((1, n), dtype=np.float32), m=m),
        heads=1, grid_hw=(1, m))


def test_read_trace_keeps_trailing_empty_clusters(tmp_path):
    # clusters 2 and 3 of the 2x2 pool grid own no pixel
    pool = icp.PoolAssignment(owner=np.array([0, 0, 1, 1], dtype=np.int32), m=4, grid_hw=(2, 2))
    trace = interpret.TraceBundle(image_hw=(8, 8), patch=4, stage_hw=[(2, 2), (2, 2)],
                                  states=[[_state(2, 4)], [_state(2, 4)]], pools=[pool])
    path = tmp_path / "t.clue"
    interpret.write_trace(path, trace)
    back = interpret.read_trace(path)
    assert back.pools[0].m == 4
    np.testing.assert_array_equal(back.pools[0].owner, pool.owner)


def test_read_ppm_bad_size_line(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\nfoo bar\n255\n")
    with pytest.raises(FormatError):
        interpret.read_ppm(path)
