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


def _two_stage_trace():
    """Two 2x2 stages of 2 centers each; clusters 2 and 3 of the pool own no pixel."""
    pool = icp.PoolAssignment(owner=np.array([0, 0, 1, 1], dtype=np.int32), m=4, grid_hw=(2, 2))
    return interpret.TraceBundle(image_hw=(8, 8), patch=4, stage_hw=[(2, 2), (2, 2)],
                                 states=[[_state(2, 4)], [_state(2, 4)]], pools=[pool])


def test_read_trace_keeps_trailing_empty_clusters(tmp_path):
    trace = _two_stage_trace()
    path = tmp_path / "t.clue"
    interpret.write_trace(path, trace)
    back = interpret.read_trace(path)
    assert back.pools[0].m == 4
    np.testing.assert_array_equal(back.pools[0].owner, trace.pools[0].owner)


I32 = np.int32
BAD_TRACES = {   # id: (part of the trace, attribute, malformed value)
    "owner value 9 in a 4-cluster pool": ("pool", "owner", np.array([0, 0, 9, 1], I32)),
    "3-entry owner for 4 points": ("pool", "owner", np.array([0, 0, 1], I32)),
    "pool grid is not the next stage's map": ("pool", "grid_hw", (1, 4)),
    "column -1": ("assignment", "cols", np.array([[0, -1, 0, 0]], I32)),
    "column 7 with m = 2": ("assignment", "cols", np.array([[0, 7, 0, 0]], I32)),
    "cols for 3 of 4 points": ("assignment", "cols", np.zeros((1, 3), I32)),
    "weights of 2 heads for 1": ("assignment", "weights", np.ones((2, 4), np.float32)),
    "image is not stage 1's map times the patch": ("trace", "image_hw", (8, 12)),
    "map size of 3 values": ("trace", "stage_hw", [(2, 2, 1), (2, 2)]),
}


@pytest.mark.parametrize("bad", sorted(BAD_TRACES))
def test_read_trace_rejects_malformed_trace(tmp_path, bad):
    trace = _two_stage_trace()
    part, name, value = BAD_TRACES[bad]
    parts = {"trace": trace, "pool": trace.pools[0], "assignment": trace.states[1][0].assignment}
    setattr(parts[part], name, value)
    path = tmp_path / "t.clue"
    interpret.write_trace(path, trace)
    with pytest.raises(FormatError):
        interpret.read_trace(path)


def test_read_ppm_bad_size_line(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\nfoo bar\n255\n")
    with pytest.raises(FormatError):
        interpret.read_ppm(path)


# ---------------------------------------------------------------------------
# receptive fields against the per-point oracles
# ---------------------------------------------------------------------------

def receptive_field_oracle(trace, stage, point):
    """Walk the pools back to stage 0 one ``isin`` at a time, then add the
    patch pixels of each stage-0 point one by one."""
    current = np.array([point], dtype=np.int64)
    for k in range(stage - 1, -1, -1):
        current = np.flatnonzero(np.isin(trace.pools[k].owner, current))
    w0 = trace.stage_hw[0][1]
    p = trace.patch
    pixels = set()
    for idx in current:
        r, c = divmod(int(idx), w0)
        for dr in range(p):
            for dc in range(p):
                pixels.add((r * p + dr, c * p + dc))
    return pixels


def cluster_receptive_field_oracle(trace, stage, cluster, head, block=0):
    cols = trace.states[stage][block].assignment.cols[head]
    out = set()
    for point in np.flatnonzero(cols == cluster):
        out |= receptive_field_oracle(trace, stage, int(point))
    return out


STAGE_HW = [(4, 6), (3, 4), (2, 3)]
PATCH = 3
HEADS = 2


def _random_trace(seed):
    """3 stages, 2 heads; the last cluster of every pool and the last center
    of every stage own nothing, and random owners leave others empty too."""
    rng = np.random.default_rng(seed)
    sizes = [h * w for h, w in STAGE_HW]
    pools = [icp.PoolAssignment(owner=rng.integers(0, sizes[k + 1] - 1, sizes[k]).astype(np.int32),
                                m=sizes[k + 1], grid_hw=STAGE_HW[k + 1])
             for k in range(len(sizes) - 1)]
    states = []
    m = 5
    for n in sizes:
        cols = rng.integers(0, m - 1, (HEADS, n)).astype(np.int32)
        states.append([gfc.ClusterState(
            centers_v=rng.standard_normal((m, 2)).astype(np.float32), soft_sim=None,
            assignment=gfc.HardAssignment(cols, np.ones((HEADS, n), dtype=np.float32), m=m),
            heads=HEADS, grid_hw=(1, m))])
    h0, w0 = STAGE_HW[0]
    return interpret.TraceBundle(image_hw=(h0 * PATCH, w0 * PATCH), patch=PATCH,
                                 stage_hw=list(STAGE_HW), states=states, pools=pools)


def _pixels(trace, field):
    """The (row, col) set of a flat receptive field, which must be a 1-D
    strictly ascending integer array."""
    assert field.ndim == 1 and field.dtype.kind in "iu"
    assert np.all(np.diff(field) > 0)
    w = trace.image_hw[1]
    return {(int(i) // w, int(i) % w) for i in field}


def _assert_partition(trace, fields):
    h, w = trace.image_hw
    np.testing.assert_array_equal(np.sort(np.concatenate(fields)), np.arange(h * w))


@pytest.mark.parametrize("seed", range(4))
def test_receptive_field_matches_oracle_and_partitions(seed):
    trace = _random_trace(seed)
    for stage, (hh, ww) in enumerate(STAGE_HW):
        fields = [interpret.receptive_field(trace, stage, p) for p in range(hh * ww)]
        assert [_pixels(trace, f) for f in fields] == \
            [receptive_field_oracle(trace, stage, p) for p in range(hh * ww)]
        _assert_partition(trace, fields)


@pytest.mark.parametrize("seed", range(4))
def test_cluster_receptive_field_matches_oracle_and_partitions(seed):
    trace = _random_trace(seed)
    for stage, (st,) in enumerate(trace.states):
        for head in range(HEADS):
            fields = [interpret.cluster_receptive_field(trace, stage, c, head)
                      for c in range(st.assignment.m)]
            assert [_pixels(trace, f) for f in fields] == \
                [cluster_receptive_field_oracle(trace, stage, c, head)
                 for c in range(st.assignment.m)]
            assert fields[-1].size == 0
            _assert_partition(trace, fields)


def test_receptive_field_of_empty_pool_cluster_is_empty():
    trace = _random_trace(0)
    hh, ww = STAGE_HW[1]
    assert interpret.receptive_field(trace, 1, hh * ww - 1).size == 0


@pytest.mark.parametrize("stage", [-1, 3, 5])
def test_cluster_receptive_field_rejects_bad_stage(stage):
    trace = _random_trace(0)
    with pytest.raises(ValueError, match="stage"):
        interpret.cluster_receptive_field(trace, stage, 4, 0)
    with pytest.raises(ValueError, match="stage"):
        interpret.receptive_field(trace, stage, 0)


def test_cluster_receptive_field_rejects_bad_stage_on_two_stage_trace():
    with pytest.raises(ValueError, match="stage 5"):
        interpret.cluster_receptive_field(_two_stage_trace(), 5, 0, 0)


# ---------------------------------------------------------------------------
# overlay rendering
# ---------------------------------------------------------------------------

def render_overlay_oracle(image, pixel_sets, spec):
    """Blend and label one pixel at a time; outline each labelled pixel
    that has a differently labelled 4-neighbour."""
    img = np.asarray(image)
    base = img.astype(np.float64) / 255.0 if img.dtype == np.uint8 else \
        np.clip(img.astype(np.float64), 0.0, 1.0)
    hh, ww = base.shape[:2]
    out = base.copy()
    label = np.full((hh, ww), -1, dtype=np.int64)
    for idx, pset in enumerate(pixel_sets):
        color = np.array(spec.palette[idx], dtype=np.float64) / 255.0
        for (r, c) in pset:
            out[r, c] = (1.0 - spec.alpha) * base[r, c] + spec.alpha * color
            label[r, c] = idx
    if spec.outline:
        for idx in range(len(pixel_sets)):
            color = np.array(spec.palette[idx], dtype=np.float64) / 255.0
            for r in range(hh):
                for c in range(ww):
                    if label[r, c] != idx:
                        continue
                    nbrs = [(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))]
                    if any(0 <= a < hh and 0 <= b < ww and label[a, b] != idx for a, b in nbrs):
                        out[r, c] = color
    return np.clip(np.rint(out * 255.0), 0, 255).astype(np.uint8)


def _overlapping_sets():
    """Flat pixel sets on an 8x8 image; set 2 is a set of ints, as a union
    of receptive fields builds it."""
    grid = np.arange(64).reshape(8, 8)
    return [grid[1:6, 0:5].ravel(),
            grid[3:8, 2:8].ravel(),                               # overlaps set 0
            {7, 56},
            np.empty(0, dtype=np.int64)]


def _row_col_sets(sets):
    """The same sets as (row, col) tuples, for the oracle."""
    return [{divmod(int(i), 8) for i in s} for s in sets]


@pytest.mark.parametrize("outline", [False, True])
@pytest.mark.parametrize("as_uint8", [False, True])
def test_render_overlay_matches_per_pixel_oracle(tmp_path, outline, as_uint8):
    image = np.random.default_rng(3).uniform(-0.2, 1.2, (8, 8, 3))
    if as_uint8:
        image = np.clip(image * 255, 0, 255).astype(np.uint8)
    sets = _overlapping_sets()
    spec = interpret.OverlaySpec(palette=interpret.default_palette(len(sets)),
                                 alpha=0.37, outline=outline)
    path = tmp_path / "o.ppm"
    got = interpret.render_overlay(image, sets, spec, path)
    want = render_overlay_oracle(image, _row_col_sets(sets), spec)
    assert got.tobytes() == want.tobytes()
    assert interpret.read_ppm(path).tobytes() == want.tobytes()
    # the later set wins where two overlap
    alone = interpret.render_overlay(image, [set(), sets[1]], spec, tmp_path / "alone.ppm")
    assert got[4, 3].tobytes() == alone[4, 3].tobytes() != got[2, 1].tobytes()


def test_render_overlay_accepts_only_empty_sets(tmp_path):
    image = np.full((8, 8, 3), 0.25)
    got = interpret.render_overlay(image, [set(), np.empty(0, dtype=np.int64)],
                                   interpret.OverlaySpec(), tmp_path / "o.ppm")
    assert got.tobytes() == np.full((8, 8, 3), 64, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("pixel", [-1, 64, 100])
def test_render_overlay_rejects_out_of_bounds_pixel(tmp_path, pixel):
    sets = [np.array([0, 9]), np.array([18, pixel])]
    with pytest.raises(ValueError, match=rf"pixel {pixel} outside 8x8"):
        interpret.render_overlay(np.zeros((8, 8, 3)), sets, interpret.OverlaySpec(),
                                 tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


def test_render_overlay_rejects_row_col_tuples(tmp_path):
    with pytest.raises(ValueError, match="flat pixel indices"):
        interpret.render_overlay(np.zeros((8, 8, 3)), [{(0, 0), (1, 1)}],
                                 interpret.OverlaySpec(), tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


def hsv_byte_oracle(h, s, v):
    """Hand-written HSV -> RGB byte conversion, the reference for default_palette."""
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - f * s), v * (1 - (1 - f) * s)
    r, g, b = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
    return int(r * 255), int(g * 255), int(b * 255)


def test_default_palette_matches_hsv_oracle():
    want = list(interpret._BASE_PALETTE)
    want += [hsv_byte_oracle((i * 0.6180339887498949) % 1.0, 0.85, 0.95)
             for i in range(500 - len(want))]
    assert interpret.default_palette(500) == want


# ---------------------------------------------------------------------------
# K-Means merging
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 5, 49])
def test_kmeans_k_equals_m_is_identity(m):
    centers = np.random.default_rng(m).standard_normal((m, 6))
    np.testing.assert_array_equal(interpret.kmeans_merge(centers, k=m), np.arange(m))


def test_kmeans_k_one_is_all_zeros():
    centers = np.random.default_rng(0).standard_normal((7, 3))
    np.testing.assert_array_equal(interpret.kmeans_merge(centers, k=1), np.zeros(7))


def canonical_labels_oracle(labels):
    """Relabel one element at a time, in order of first appearance."""
    remap = {}
    return np.array([remap.setdefault(lab, len(remap)) for lab in labels.tolist()],
                    dtype=np.int64)


def test_canonical_labels_number_groups_by_first_appearance():
    np.testing.assert_array_equal(
        interpret._canonical_labels(np.array([3, 3, 0, 2, 0, 5, 3])), [0, 0, 1, 2, 1, 3, 0])
    rng = np.random.default_rng(0)
    for _ in range(200):
        labels = rng.integers(0, rng.integers(1, 50), rng.integers(1, 60))
        got = interpret._canonical_labels(labels)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, canonical_labels_oracle(labels))


@pytest.mark.parametrize("k", [0, -1, 6])
def test_kmeans_k_out_of_range(k):
    with pytest.raises(ValueError, match="k must be"):
        interpret.kmeans_merge(np.random.default_rng(0).standard_normal((5, 2)), k=k)
