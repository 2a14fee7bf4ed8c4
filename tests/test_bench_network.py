"""Whole-network gates on the benchmark's network (cluebench/model.py).

The assembled network lives only in cluebench/, so these tests import it to
check what no package test can: a batch is its images run one at a time,
checkpoints round-trip bit for bit, the copy of gfc.compute_assignment
in checks.forced_assignments, which the benchmark's float64 comparison
runs, still computes what the package does, the benchmark's explain
step passes its own checks, float32 training steps pass its float64
comparison, a forward holds no more memory than its backward needs, and
the backward frees each op's arrays as soon as it has run.
These tests read cluebench/ and change nothing in it.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from test_interpret import render_overlay_oracle

from cluenet import interpret


@pytest.fixture
def bench(bench_root):
    from cluebench import checks, model
    return checks, model


def seeded_batch(preset, batch: int):
    rng = np.random.default_rng(16)
    x = rng.uniform(0.0, 1.0, (batch, preset.image, preset.image, 3))
    return x, rng.integers(0, preset.classes, batch)


@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_forced_assignments_reproduce_the_package_step(bench, preset):
    """Forcing a step's own hard choices changes no bit, so a change to
    gfc.compute_assignment's forward or backward that the copy does not
    follow fails here."""
    checks, model = bench
    net = model.cast(model.build(model.PRESETS[preset], 0), np.float64)
    x, labels = seeded_batch(net.preset, 2)
    _, logits, dx, rec = model.train_step(net, x, labels)
    grads = [p.grad.copy() for p in net.params()]
    with checks.forced_assignments(net, rec) as flips:
        _, logits_f, dx_f, _ = model.train_step(net, x, labels)
    assert flips == [0] * 6       # 4 stages' cols, 2 icp transitions' owners
    assert logits_f.tobytes() == logits.tobytes()
    assert dx_f.tobytes() == dx.tobytes()
    changed = [p.name for p, g in zip(net.params(), grads) if p.grad.tobytes() != g.tobytes()]
    assert not changed, "parameter gradients changed under forced assignments: " + ", ".join(changed)


def test_batch_is_its_images_one_at_a_time(bench):
    _, model = bench
    net = model.cast(model.build(model.TINY, 0), np.float64)
    x, _ = seeded_batch(net.preset, 3)
    logits, rec, _ = model.forward(net, x)
    for i in range(len(x)):
        logits_i, rec_i, _ = model.forward(net, x[i:i + 1])
        np.testing.assert_allclose(logits[i:i + 1], logits_i, rtol=0, atol=1e-12)
        for st, st_i in zip(rec.states, rec_i.states, strict=True):
            np.testing.assert_array_equal(st.assignment.cols[i], st_i.assignment.cols[0])
        for pool, pool_i in zip(rec.pools, rec_i.pools, strict=True):
            np.testing.assert_array_equal(pool.owner[i], pool_i.owner[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_checkpoint_round_trip_is_exact(bench, tmp_path, preset, dtype):
    # cluebench/test_cluebench.py still expects 16 mismatches, the count of a
    # 0-d entry defect in the container that has since been fixed.
    _, model = bench
    net = model.cast(model.build(model.PRESETS[preset], 0), dtype)
    mismatches, _ = model.checkpoint_roundtrip(net, tmp_path / "net.clue")
    assert mismatches == 0


@pytest.mark.parametrize(("preset", "batch"), [("tiny", 8), ("small", 2)])
def test_float32_train_step_passes_the_float64_comparison(bench, preset, batch):
    """The benchmark's float32-vs-float64 comparison of outputs and
    gradients passes on steps 0 and 1 of seed 5, so a precision change on
    a gradient path fails here and not only in a benchmark run."""
    checks, model = bench
    from cluebench import run
    net = model.build(model.PRESETS[preset], 0)
    net64 = model.cast(net, np.float64)
    for step in range(2):
        x, labels = run.inputs(net.preset, 5, step, batch)
        _, logits, dx, rec = model.train_step(net, x, labels)
        out = {"logits": logits, "rec": rec, "dx": dx, "grads": [p.grad for p in net.params()]}
        problems, _ = checks.compare_f64(net64, x, labels, out, backward=True)
        assert not problems, f"step {step}: " + "; ".join(problems)


@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_explain_step_passes_the_benchmark_checks(bench, tmp_path, preset):
    """run.explain's receptive fields partition the image, its trace
    round-trips and its overlay reads back; on tiny the overlay equals the
    per-pixel oracle drawn from the same merged sets."""
    checks, model = bench
    from cluebench import run
    net = model.build(model.PRESETS[preset], 0)
    x, _ = run.inputs(net.preset, 16, 0, 1)
    ex = run.explain(net, x[0], str(tmp_path))
    assert checks.check_explain(ex, str(tmp_path / "overlay.ppm")) == ([], 0)
    if preset == "tiny":
        groups = interpret.kmeans_merge(ex.bundle.states[0][0].centers_v, k=run.MERGE_K)
        width = ex.bundle.image_hw[1]
        merged = [{divmod(int(i), width) for c in np.flatnonzero(groups == g) for i in ex.maps[0, 0, c]}
                  for g in range(run.MERGE_K)]
        spec = interpret.OverlaySpec(interpret.default_palette(run.MERGE_K), outline=True)
        assert ex.rendered.tobytes() == render_overlay_oracle(x[0], merged, spec).tobytes()


# Bytes a B=2 float32 small forward leaves held (logits, record and the
# backward closures), by tracemalloc: 22.49 MB when each closure keeps only
# what its gradient reads, at that gradient's precision, the clustering
# block's backward recomputes its similarity maps and gathered centers, and
# the FFN's backward holds only its hidden map h1 and rebuilds the rest from
# it, plus about 7% slack. Holding the float64 inputs of float32 weights'
# gradients holds 24.24 MB; the op-by-op FFN, which holds GELU's slope and
# float32 copies of h1 and of the GELU output, 29.74 MB. Both fail.
HELD_AFTER_FORWARD = 24_000_000


def test_forward_holds_only_what_backward_reads(bench):
    _, model = bench
    net = model.build(model.SMALL, 0)
    x, _ = seeded_batch(net.preset, 2)
    x = x.astype(np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = model.forward(net, x)     # logits, record and backward stay alive
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= HELD_AFTER_FORWARD, f"{held / 1e6:.2f} MB held after one forward"


# The backward of the same B=2 float32 small step, by tracemalloc. Each
# public backward runs once and frees what it held when it returns, and the
# FFN's recompute lets go of each rebuilt map once its last reader has run:
# the backward peaks 6.68 MB above what the forward held and leaves 12.37 MB
# (9.90 MB of it parameter gradients) while the logits, record and spent
# closure stay alive, plus about 15% and 10% slack. The forward holding less
# is what raises the first number (4.27 MB with the op-by-op FFN), so the
# forward's hold plus the backward's peak is bounded too: 29.17 MB, plus
# about 6% (34.00 MB with the op-by-op FFN). Closures that keep their
# arrays until the whole chain has returned peak 14.42 MB above the forward,
# 36.85 MB in all, and leave 32.37 MB; all three fail.
BACKWARD_PEAK_ABOVE_FORWARD = 7_700_000
HELD_AFTER_BACKWARD = 13_500_000
STEP_PEAK = 31_000_000


def test_backward_frees_each_closures_arrays_once_it_has_run(bench):
    _, model = bench
    net = model.build(model.SMALL, 0)
    x, labels = seeded_batch(net.preset, 2)
    x = x.astype(np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits, rec, backward = model.forward(net, x)
        _, d_logits = model.xent(logits, labels)
        forward_held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(d_logits)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - forward_held <= BACKWARD_PEAK_ABOVE_FORWARD, \
        f"backward peaked {(peak - forward_held) / 1e6:.2f} MB above the forward"
    assert peak - base <= STEP_PEAK, f"the step peaked at {(peak - base) / 1e6:.2f} MB"
    assert after - base <= HELD_AFTER_BACKWARD, f"{(after - base) / 1e6:.2f} MB held after the backward"
