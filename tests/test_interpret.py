"""Trace and overlay file IO."""

import dataclasses

import numpy as np
import pytest

from cluenet import container, gfc, icp, interpret
from cluenet.errors import ConfigError, DimensionError, FormatError


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


def test_trace_stores_no_derived_size(tmp_path):
    """The image is stage 1's map times the patch and a pool's grid is the
    next stage's map: read_trace derives both, so the file holds neither."""
    path = tmp_path / "t.clue"
    interpret.write_trace(path, _two_stage_trace())
    assert [k for k in container.read_container(path) if "image" in k or "pool/grid" in k] == []
    back = interpret.read_trace(path)
    assert back.image_hw == (8, 8) and back.pools[0].grid_hw == (2, 2)


I32 = np.int32
BAD_TRACES = {   # id: (part of the trace or "entry" of the file, attribute or entry name, malformed value)
    "owner value 9 in a 4-cluster pool": ("pool", "owner", np.array([0, 0, 9, 1], I32)),
    "3-entry owner for 4 points": ("pool", "owner", np.array([0, 0, 1], I32)),
    "column -1": ("assignment", "cols", np.array([[0, -1, 0, 0]], I32)),
    "column 7 with m = 2": ("assignment", "cols", np.array([[0, 7, 0, 0]], I32)),
    "cols for 3 of 4 points": ("assignment", "cols", np.zeros((1, 3), I32)),
    "weights of 2 heads for 1": ("assignment", "weights", np.ones((2, 4), np.float32)),
    "no stages": ("trace", "stage_hw", []),
    "map size of 3 values": ("trace", "stage_hw", [(2, 2, 1), (2, 2)]),
    "3x3 center grid for 2 centers": ("state", "grid_hw", (3, 3)),
    "patch 0": ("trace", "patch", 0),
    # write_trace writes floats, so these two are put into the file after it
    "uint8 centers": ("entry", "stage2/block1/centers", np.zeros((2, 2), np.uint8)),
    "int32 weights": ("entry", "stage2/block1/assignment/weights", np.ones((1, 4), I32)),
}


@pytest.mark.parametrize("bad", sorted(BAD_TRACES))
def test_read_trace_rejects_malformed_trace(tmp_path, bad):
    trace = _two_stage_trace()
    part, name, value = BAD_TRACES[bad]
    state = trace.states[1][0]
    parts = {"trace": trace, "pool": trace.pools[0], "state": state, "assignment": state.assignment}
    if part != "entry":
        setattr(parts[part], name, value)
    path = tmp_path / "t.clue"
    interpret.write_trace(path, trace)
    if part == "entry":
        container.write_container(path, {**container.read_container(path), name: value})
    with pytest.raises(FormatError, match=name if part == "entry" else None):
        interpret.read_trace(path)


@pytest.mark.parametrize("map_hw", [(0, 2), (2, 0)])
def test_read_trace_rejects_empty_stage_map(tmp_path, map_hw):
    """A stage map without points, in a trace whose other entries fit it:
    one stage, no pool, and a block with (1, 0) columns."""
    trace = interpret.TraceBundle(image_hw=(0, 0), patch=4, stage_hw=[map_hw],
                                  states=[[_state(2, 0)]], pools=[])
    path = tmp_path / "t.clue"
    interpret.write_trace(path, trace)
    with pytest.raises(FormatError, match="stage1/map_hw"):
        interpret.read_trace(path)


@pytest.mark.parametrize("key", ["patch", "num_stages", "stage1/num_blocks"])
def test_read_trace_rejects_empty_count_entry(tmp_path, key):
    path = tmp_path / "t.clue"
    interpret.write_trace(path, _two_stage_trace())
    entries = container.read_container(path)
    entries[key] = np.zeros(0, I32)
    container.write_container(path, entries)
    with pytest.raises(FormatError, match=key):
        interpret.read_trace(path)


BAD_PPMS = {   # id: (file bytes, fixed part of the message)
    "P5 magic": (b"P5\n1 1\n255\n" + bytes(1), "not a P6/255 PPM of non-negative size"),
    "maxval 65535": (b"P6\n1 1\n65535\n" + bytes(6), "not a P6/255 PPM of non-negative size"),
    # -1 x 1 x 3 is the 3-byte payload's size, so only the sign check rejects it
    "-1 x 1 with a 3-byte payload": (b"P6\n-1 1\n255\n" + bytes(3), "not a P6/255 PPM of non-negative size"),
    "size line 'foo bar'": (b"P6\nfoo bar\n255\n", r"not a P6/255 PPM \(ValueError: invalid literal"),
    "no payload line": (b"P6\n1 1\n255", r"not a P6/255 PPM \(IndexError"),
    "payload 1 byte short": (b"P6\n2 1\n255\n" + bytes(5), r"\(ValueError: cannot reshape array of size 5 "),
    "payload 1 byte long": (b"P6\n2 1\n255\n" + bytes(7), r"\(ValueError: cannot reshape array of size 7 "),
}


@pytest.mark.parametrize("bad", sorted(BAD_PPMS))
def test_read_ppm_rejects_malformed_file(tmp_path, bad):
    data, message = BAD_PPMS[bad]
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        interpret.read_ppm(path)


@pytest.mark.parametrize("shape, dtype", [((4, 4), np.uint8), ((4, 4, 3, 1), np.uint8),
                                          ((4, 4, 4), np.uint8), ((4, 4, 3), np.float64)])
def test_write_ppm_rejects_non_rgb_bytes(tmp_path, shape, dtype):
    with pytest.raises(DimensionError, match=r"write_ppm expects \(H, W, 3\) uint8"):
        interpret.write_ppm(tmp_path / "o.ppm", np.zeros(shape, dtype=dtype))
    assert not (tmp_path / "o.ppm").exists()


@pytest.mark.parametrize("key", ["patch", "stage1/block1/centers", "stage1/pool/owner"])
def test_read_trace_rejects_missing_entry(tmp_path, key):
    path = tmp_path / "t.clue"
    interpret.write_trace(path, _two_stage_trace())
    entries = container.read_container(path)
    del entries[key]
    container.write_container(path, entries)
    with pytest.raises(FormatError, match=f"trace missing entry '{key}'"):
        interpret.read_trace(path)


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


def _random_trace(seed, blocks=1):
    """3 stages, 2 heads; the last cluster of every pool and the last center
    of every stage own nothing, and random owners leave others empty too.
    Block j of a stage shifts block 0's columns by j (mod 4), so with
    ``blocks=2`` the two blocks disagree at every point."""
    rng = np.random.default_rng(seed)
    sizes = [h * w for h, w in STAGE_HW]
    pools = [icp.PoolAssignment(owner=rng.integers(0, sizes[k + 1] - 1, sizes[k]).astype(np.int32),
                                m=sizes[k + 1], grid_hw=STAGE_HW[k + 1])
             for k in range(len(sizes) - 1)]
    states = []
    m = 5
    for n in sizes:
        cols = rng.integers(0, m - 1, (HEADS, n)).astype(np.int32)
        centers = rng.standard_normal((m, 2)).astype(np.float32)
        states.append([gfc.ClusterState(
            centers_v=centers, soft_sim=None,
            assignment=gfc.HardAssignment((cols + j) % (m - 1), np.ones((HEADS, n), dtype=np.float32),
                                          m=m),
            heads=HEADS, grid_hw=(1, m)) for j in range(blocks)])
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


def _point_trace(seed):
    """_random_trace with the identity assignment in every head: cluster c of
    a stage is its point c, so cluster fields are the points' fields."""
    trace = _random_trace(seed)
    for (st,), (hh, ww) in zip(trace.states, STAGE_HW):
        n = hh * ww
        st.assignment = gfc.HardAssignment(np.tile(np.arange(n, dtype=np.int32), (HEADS, 1)),
                                           np.ones((HEADS, n), dtype=np.float32), m=n)
    return trace


@pytest.mark.parametrize("seed", range(4))
def test_receptive_field_matches_oracle_and_partitions(seed):
    trace = _point_trace(seed)
    for stage, (hh, ww) in enumerate(STAGE_HW):
        fields = [interpret.cluster_receptive_field(trace, stage, p, HEADS - 1)
                  for p in range(hh * ww)]
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


def _query_all(trace, block=0):
    """Every cluster's field of every stage and head, keyed (stage, head, cluster)."""
    return {(stage, head, c): interpret.cluster_receptive_field(trace, stage, c, head, block)
            for stage, states in enumerate(trace.states)
            for head in range(states[block].heads)
            for c in range(states[block].assignment.m)}


@pytest.mark.parametrize("seed", range(2))
def test_cluster_receptive_field_keeps_blocks_apart(seed):
    """Queries go block 1, then block 0, then block 1 again, each over every
    stage and head: a field kept for one block must not answer for another."""
    trace = _random_trace(seed, blocks=2)
    for block in (1, 0, 1):
        for (stage, head, c), field in _query_all(trace, block).items():
            assert _pixels(trace, field) == \
                cluster_receptive_field_oracle(trace, stage, c, head, block)


def test_cluster_receptive_field_returns_a_private_array():
    """Each field is its caller's own 1-D, C-contiguous, strictly ascending
    intp array: writing into it leaves the next query's answer intact."""
    trace = _random_trace(0)
    for (stage, head, c), field in _query_all(trace).items():
        assert field.ndim == 1 and field.flags.c_contiguous and field.dtype == np.intp
        want = cluster_receptive_field_oracle(trace, stage, c, head)
        assert _pixels(trace, field) == want
        field[:] = 0
        assert _pixels(trace, interpret.cluster_receptive_field(trace, stage, c, head)) == want


def test_pixel_labels_built_once_per_stage_block_and_head(monkeypatch):
    """The first query of a (stage, block) groups the pixels of all its heads."""
    calls = []
    build = interpret._pixel_labels
    monkeypatch.setattr(interpret, "_pixel_labels",
                        lambda trace, stage: calls.append(stage) or build(trace, stage))
    trace = _random_trace(0)
    for _ in range(2):
        _query_all(trace)
    assert sorted(calls) == list(range(len(STAGE_HW)))


def test_replaced_and_read_back_traces_answer_from_their_own_data(tmp_path):
    trace = _random_trace(0)
    unqueried = tmp_path / "unqueried.clue"
    interpret.write_trace(unqueried, trace)
    fields = _query_all(trace)
    copy = dataclasses.replace(trace, pools=_random_trace(1).pools)
    copied = _query_all(copy)
    assert any(not np.array_equal(copied[key], field) for key, field in fields.items())
    for (stage, head, c), field in copied.items():
        assert _pixels(copy, field) == cluster_receptive_field_oracle(copy, stage, c, head)
    # the queried trace writes the same file, so its kept fields are not serialized
    path = tmp_path / "t.clue"
    interpret.write_trace(path, trace)
    assert path.read_bytes() == unqueried.read_bytes()
    back = _query_all(interpret.read_trace(path))
    assert back.keys() == fields.keys()
    for key, field in fields.items():
        assert back[key].tobytes() == field.tobytes()


def test_receptive_field_of_empty_pool_cluster_is_empty():
    trace = _point_trace(0)
    hh, ww = STAGE_HW[1]
    assert interpret.cluster_receptive_field(trace, 1, hh * ww - 1, 0).size == 0


@pytest.mark.parametrize("stage", [-1, 3, 5, 0.0, True])
def test_cluster_receptive_field_rejects_bad_stage(stage):
    trace = _random_trace(0)
    with pytest.raises(ConfigError, match="stage"):
        interpret.cluster_receptive_field(trace, stage, 4, 0)


@pytest.mark.parametrize("cluster, head, block, message", [
    (0, 0, 1, r"block 1 out of range \[0,1\)"),
    (0, 0, -1, r"block -1 out of range"),
    (0, HEADS, 0, rf"head {HEADS} out of range \[0,{HEADS}\)"),
    (0, -1, 0, r"head -1 out of range"),
    (5, 0, 0, r"cluster 5 out of range \[0,5\)"),
    (-1, 0, 0, r"cluster -1 out of range"),
    (1.0, 0, 0, r"cluster 1.0 out of range \[0,5\)"),
    (True, 0, 0, r"cluster True out of range \[0,5\)"),
    (0, 1.0, 0, r"head 1.0 out of range"),
    (0, 0, 0.0, r"block 0.0 out of range"),
])
def test_cluster_receptive_field_rejects_bad_index(cluster, head, block, message):
    with pytest.raises(ConfigError, match=message):
        interpret.cluster_receptive_field(_random_trace(0), 1, cluster, head, block)


MISFITS = sorted(bad for bad, (part, name, _) in BAD_TRACES.items() if part == "pool" or name == "cols")


@pytest.mark.parametrize("bad", MISFITS + ["fewer pools than stages", "fewer maps than stages"])
def test_cluster_receptive_field_rejects_a_trace_that_does_not_fit_its_maps(bad):
    """The pool and cols rows that read_trace rejects in a file, applied in
    memory, and a trace that lost its pool or a map: each is a typed error
    naming the stage, not an IndexError from inside numpy or a silently
    empty field."""
    trace = _two_stage_trace()
    if bad in BAD_TRACES:
        part, name, value = BAD_TRACES[bad]
        setattr(trace.pools[0] if part == "pool" else trace.states[1][0].assignment, name, value)
    elif bad == "fewer pools than stages":
        trace.pools = []
    else:
        trace.stage_hw = trace.stage_hw[:1]
    with pytest.raises(DimensionError, match="trace stage 1: "):
        interpret.cluster_receptive_field(trace, 1, 0, 0)


def test_cluster_receptive_field_rejects_a_stage_without_blocks():
    trace = _random_trace(0)
    with pytest.raises(ConfigError, match=r"stage 2 out of range \[0,2\)"):
        interpret.cluster_receptive_field(dataclasses.replace(trace, states=trace.states[:2]), 2, 0, 0)


def test_cluster_receptive_field_rejects_bad_stage_on_two_stage_trace():
    with pytest.raises(ConfigError, match="stage 5"):
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
    alpha = interpret.OVERLAY_ALPHA
    for idx, pset in enumerate(pixel_sets):
        color = np.array(spec.palette[idx], dtype=np.float64) / 255.0
        for (r, c) in pset:
            out[r, c] = (1.0 - alpha) * base[r, c] + alpha * color
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
    """Flat pixel sets on an 8x8 image; set 2 is a set of numpy ints, as a
    union of receptive fields builds it."""
    grid = np.arange(64).reshape(8, 8)
    return [grid[1:6, 0:5].ravel(),
            grid[3:8, 2:8].ravel(),                               # overlaps set 0
            set().union(grid[0, 7:], grid[7, :1]),                # {7, 56}
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
    spec = interpret.OverlaySpec(palette=interpret.default_palette(len(sets)), outline=outline)
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
    want = np.full((8, 8, 3), 64, dtype=np.uint8).tobytes()
    got = interpret.render_overlay(image, [set(), np.empty(0, dtype=np.int64)],
                                   interpret.OverlaySpec(), tmp_path / "o.ppm")
    assert got.tobytes() == want
    # no sets at all need no palette
    got = interpret.render_overlay(image, [], interpret.OverlaySpec([], outline=True),
                                   tmp_path / "none.ppm")
    assert got.tobytes() == want


BAD_PALETTES = {   # id: palette for three pixel sets
    "2 colors for 3 sets": [(255, 0, 0), (0, 255, 0)],
    "RGBA 4-tuples": [(255, 0, 0, 255)] * 3,
    "three 2-tuples": [(255, 0), (0, 255), (0, 0)],
    "plain ints": [255, 0, 0],
    "a 2-tuple after 2 triples": [(255, 0, 0), (0, 255, 0), (0, 0)],
    "a string triple": [(255, 0, 0), ("a", "b", "c"), (0, 0, 255)],
    "a NaN channel": [(255, 0, 0), (0, float("nan"), 0), (0, 0, 255)],
    "a channel of 256": [(255, 0, 0), (0, 256, 0), (0, 0, 255)],
    "a channel of -1": [(255, 0, 0), (0, -1, 0), (0, 0, 255)],
}


@pytest.mark.parametrize("bad", sorted(BAD_PALETTES))
def test_render_overlay_rejects_palette_without_an_rgb_triple_per_set(tmp_path, bad):
    sets = [np.array([0, 9]), np.array([18]), {27}]
    with pytest.raises(ConfigError, match="palette must give each of 3 sets an RGB triple"):
        interpret.render_overlay(np.zeros((8, 8, 3)), sets,
                                 interpret.OverlaySpec(BAD_PALETTES[bad]), tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


def test_render_overlay_accepts_palette_channels_from_0_to_255(tmp_path):
    """Float channels and both range ends are colors like any other."""
    image = np.random.default_rng(4).uniform(0.0, 1.0, (8, 8, 3))
    sets = _overlapping_sets()
    spec = interpret.OverlaySpec([(0, 0, 0), (255, 255, 255), (127.5, 0.25, 255.0), (1, 2, 3)],
                                 outline=True)
    got = interpret.render_overlay(image, sets, spec, tmp_path / "o.ppm")
    assert got.tobytes() == render_overlay_oracle(image, _row_col_sets(sets), spec).tobytes()


@pytest.mark.parametrize("pixel", [-1, 64, 100])
def test_render_overlay_rejects_out_of_bounds_pixel(tmp_path, pixel):
    sets = [np.array([0, 9]), np.array([18, pixel])]
    with pytest.raises(ConfigError, match=rf"pixel {pixel} outside 8x8"):
        interpret.render_overlay(np.zeros((8, 8, 3)), sets, interpret.OverlaySpec(),
                                 tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


def test_render_overlay_rejects_row_col_tuples(tmp_path):
    with pytest.raises(DimensionError, match="flat pixel indices"):
        interpret.render_overlay(np.zeros((8, 8, 3)), [{(0, 0), (1, 1)}],
                                 interpret.OverlaySpec(), tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


NOT_FLAT = {   # id: a pixel set that is not a collection of flat integer indices
    "floats": {0.5, 1.7},
    "a digit string": {"3"},
    "a bool": {True},
    "a tuple beside an int": {(0, 1), 3},
    "None": None,
    "an int": 3,
}


@pytest.mark.parametrize("bad", sorted(NOT_FLAT))
def test_render_overlay_rejects_non_integer_pixel_set(tmp_path, bad):
    with pytest.raises(DimensionError, match="pixel set 1 is not a list of flat pixel indices"):
        interpret.render_overlay(np.zeros((8, 8, 3)), [{0}, NOT_FLAT[bad]],
                                 interpret.OverlaySpec(), tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4), (4, 4, 3, 1)])
def test_render_overlay_rejects_non_rgb_image(tmp_path, shape):
    with pytest.raises(DimensionError, match=r"\(H, W, 3\)"):
        interpret.render_overlay(np.zeros(shape), [{0}], interpret.OverlaySpec(),
                                 tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "x", None])
def test_render_overlay_rejects_non_finite_image(tmp_path, value):
    image = np.zeros((4, 4, 3)).astype(object if value is None else type(value))
    image[1, 2, 0] = value
    with pytest.raises(ConfigError, match="image must be finite"):
        interpret.render_overlay(image, [{0}], interpret.OverlaySpec(), tmp_path / "o.ppm")
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


@pytest.mark.parametrize("count", range(14))
def test_default_palette_is_a_prefix_of_the_longer_palette(count):
    """Below, at and just past the 12 base colors, where no hue step is taken."""
    assert interpret.default_palette(count) == interpret.default_palette(500)[:count]


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


@pytest.mark.parametrize("centers, want", [
    (np.ones((5, 2)), [0, 0, 0, 0, 0]),
    ([[0, 0], [0, 0], [1, 1], [1, 1]], [0, 0, 1, 1]),
], ids=["all equal", "two distinct"])
def test_kmeans_seeds_past_coinciding_centers(centers, want):
    """k exceeds the distinct centers, so k-means++ runs out of distance mass
    (every center coincides with a chosen mean) and draws further seeds
    uniformly instead of dividing by zero."""
    np.testing.assert_array_equal(interpret.kmeans_merge(centers, k=3), want)


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


@pytest.mark.parametrize("k", [0, -1, 6, 2.5, 2.0, "2", None, True, np.True_])
def test_kmeans_k_out_of_range(k):
    with pytest.raises(ConfigError, match="k must be"):
        interpret.kmeans_merge(np.random.default_rng(0).standard_normal((5, 2)), k=k)


def test_kmeans_accepts_a_numpy_integer_k():
    centers = np.random.default_rng(0).standard_normal((5, 2))
    np.testing.assert_array_equal(interpret.kmeans_merge(centers, k=np.int64(2)),
                                  interpret.kmeans_merge(centers, k=2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "a", None])
def test_kmeans_rejects_non_finite_centers(value):
    centers = np.random.default_rng(0).standard_normal((5, 2))
    centers = centers.astype(object if value is None else type(value))
    centers[3, 1] = value
    with pytest.raises(ConfigError, match="centers must be finite"):
        interpret.kmeans_merge(centers, k=2)


@pytest.mark.parametrize("centers", [np.zeros(5), np.zeros((5, 2, 1)), [[1.0, 2.0], [3.0]]],
                         ids=["shape0", "shape1", "ragged"])
def test_kmeans_rejects_non_matrix_centers(centers):
    with pytest.raises(DimensionError, match=r"\(m, c\)"):
        interpret.kmeans_merge(centers, k=1)
