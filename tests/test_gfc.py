"""Clustering block: aggregation, fusion, hard assignment, dispatch, FFN."""

import dataclasses
import math

import numpy as np
import pytest

from cluenet import gfc, pfe
from cluenet import tensor as T
from cluenet.errors import ConfigError, DimensionError
from fd import grad_check
from ops import F64, param

SIGMOID_1 = 0.7310585786300049  # frozen: 1/(1+exp(-1))


def toy_block(rng, d=8, dp=8, heads=2, grid=(2, 2), flags=gfc.BlockFlags(),
              owns=True, scale=10.0, name="block"):
    """Block params in float64 with inflated weight scale so that projected
    rows sit well above the cosine eps floor during finite differencing.
    Its residual branches stay zero (fc_out and ffn_w2 scale to 0), so it
    returns y == x until ``live`` draws them."""
    p = gfc.make_gfc_params(rng, d, dp, heads, grid, flags, owns, dtype=F64, name=name)
    for q in p.params():
        if q.value.ndim >= 2:
            q.value = q.value * scale
    return p


def live(p, rng):
    """Draw the zero-initialised residual projections: every parameter reaches y."""
    for q in (p.fc_out, p.ffn_w2):
        q.value = T.trunc_normal(rng, q.shape, 0.2, F64)
    return p


# ---------------------------------------------------------------------------
# init_centers
# ---------------------------------------------------------------------------

def test_centers_global_mean():
    x = np.random.default_rng(0).normal(size=(4, 4, 3))
    c, _ = gfc.init_centers(x[None], 1, 1)
    np.testing.assert_allclose(c[0], x.mean(axis=(0, 1))[None], rtol=1e-12)


def test_centers_identity_pool():
    x = np.random.default_rng(1).normal(size=(3, 5, 2))
    c, _ = gfc.init_centers(x[None], 3, 5)
    np.testing.assert_array_equal(c[0], x.reshape(15, 2))


def test_centers_quadrant_constants():
    vals = [1.0, -2.0, 3.0, 0.5]
    x = np.zeros((4, 4, 1))
    x[:2, :2], x[:2, 2:], x[2:, :2], x[2:, 2:] = vals
    c, _ = gfc.init_centers(x[None], 2, 2)
    np.testing.assert_array_equal(c[0, :, 0], vals)


def test_centers_grid_too_large():
    with pytest.raises(ConfigError):
        gfc.init_centers(np.zeros((1, 2, 2, 1)), 3, 3)


# ---------------------------------------------------------------------------
# soft_aggregate
# ---------------------------------------------------------------------------

def test_aggregate_identical_pixels():
    v = np.array([2.0, -1.0, 0.5])
    p_sim = np.tile([1.0, 0.0, 0.0], (6, 1))
    p_val = np.tile(v, (6, 1))
    c = np.array([[0.3, 0.4, 0.5]])
    out, s_c, _ = gfc.soft_aggregate(c, p_sim, p_val, param("tau_raw", 0.0))
    np.testing.assert_allclose(out[0], v, rtol=1e-12)
    np.testing.assert_allclose(s_c.sum(), 1.0, rtol=1e-12)


def test_aggregate_two_pixel_closed_form():
    # cos similarities are [1, 0]; softmax([1,0]) is the frozen pair below.
    p_sim = np.array([[1.0, 0.0], [0.0, 1.0]])
    v1, v2 = np.array([3.0, -1.0]), np.array([0.0, 4.0])
    p_val = np.stack([v1, v2])
    c = np.array([[1.0, 0.0]])
    out, s_c, _ = gfc.soft_aggregate(c, p_sim, p_val, param("tau_raw", 0.0))
    w_hi, w_lo = 0.7310585786300049, 0.2689414213699951
    np.testing.assert_allclose(s_c[0], [w_hi, w_lo], rtol=1e-12)
    np.testing.assert_allclose(out[0], w_hi * v1 + w_lo * v2, rtol=1e-12)


def test_aggregate_high_temperature_flattens():
    rng = np.random.default_rng(2)
    out, s_c, _ = gfc.soft_aggregate(rng.normal(size=(3, 4)), rng.normal(size=(7, 4)),
                                     rng.normal(size=(7, 4)), param("tau_raw", math.log(1e6)))
    np.testing.assert_allclose(s_c, 1.0 / 7.0, atol=1e-4)


def test_aggregate_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.normal(size=(4, 5))
        p = rng.normal(size=(9, 5))
        tau_raw = param("tau_raw", math.log(rng.uniform(0.05, 3.0)))
        _, s_c, _ = gfc.soft_aggregate(c, p, rng.normal(size=(9, 5)), tau_raw)
        np.testing.assert_allclose(s_c.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(s_c > 0)


def test_aggregate_clamped_temperature_gets_no_gradient():
    """Below TAU_MIN the temperature is the constant TAU_MIN: tau_raw gets no
    gradient, in agreement with finite differences, and every input does."""
    rng = np.random.default_rng(7)
    tau_raw = param("tau_raw", math.log(gfc.TAU_MIN / 2))
    w = rng.normal(size=(3, 4))
    inputs = [rng.normal(size=(3, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 4))]
    run = lambda c, p, v: gfc.soft_aggregate(c, p, v, tau_raw)
    grad_check(run, inputs, w, params=[tau_raw], tol=1e-4)   # tau = 0.01 sharpens the softmax
    assert tau_raw.grad is None
    assert all(np.any(g) for g in run(*inputs)[-1](w))


@pytest.mark.parametrize("c_shape, p_shape, v_shape, cosine", [
    ((1, 2, 2), (1, 2, 2), (3, 2, 2), True),
    ((1, 2, 2), (1, 2, 2), (1, 5, 2), True),
    ((1, 2, 2), (3, 2, 2), (3, 2, 2), False),
    ((1, 2, 3), (1, 2, 2), (1, 2, 2), False),
], ids=["values_of_another_batch", "5_values_for_2_pixels", "dot_centers_of_another_batch",
        "dot_widths_differ"])
def test_aggregate_rejects_operands_that_do_not_fit(c_shape, p_shape, v_shape, cosine):
    """Operands that matmul would broadcast, or reject with a bare ValueError."""
    with pytest.raises(DimensionError, match="soft_aggregate: centers"):
        gfc.soft_aggregate(np.ones(c_shape), np.ones(p_shape), np.ones(v_shape),
                           param("tau_raw", 0.0) if cosine else None)


def test_aggregate_unit_rows_match_dot_form():
    # On unit-norm rows, cosine and dot-product attention agree at tau=sqrt(dh).
    rng = np.random.default_rng(6)
    dh = 4
    c = rng.normal(size=(3, dh))
    p = rng.normal(size=(8, dh))
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    v = rng.normal(size=(8, dh))
    out_cos, _, _ = gfc.soft_aggregate(c, p, v, param("tau_raw", math.log(math.sqrt(dh))))
    out_dot, _, _ = gfc.soft_aggregate(c, p, v, None)
    np.testing.assert_allclose(out_cos, out_dot, rtol=1e-9)


def soft_aggregate_keep_map(c_s, p_s, p_v, tau_raw):
    """soft_aggregate whose backward keeps the forward's similarity map and
    its cosine closure instead of recomputing them."""
    if tau_raw is not None:
        tau_nat = float(np.exp(tau_raw.value))
        tau = max(tau_nat, gfc.TAU_MIN)
        sim, back_sim = T.cosine_sim(c_s, p_s)
    else:
        tau = math.sqrt(c_s.shape[-1])
        sim = c_s @ np.swapaxes(p_s, -1, -2)
        back_sim = lambda d_sim: (d_sim @ p_s, np.swapaxes(d_sim, -1, -2) @ c_s)
    s_c, back_soft = T.softmax(sim / tau)
    out = s_c @ p_v

    def backward(d_out):
        d_sc = d_out @ np.swapaxes(p_v, -1, -2)
        d_pv = np.swapaxes(s_c, -1, -2) @ d_out
        d_logits = back_soft(d_sc)
        if tau_raw is not None and tau_nat > gfc.TAU_MIN:
            s = float((d_logits * sim).sum())
            tau_raw.add_grad(np.asarray((-s / (tau * tau)) * tau_nat, dtype=tau_raw.value.dtype))
        d_cs, d_ps = back_sim(d_logits / tau)
        return d_cs, d_ps, d_pv

    return out, s_c, backward


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("log_tau", [math.log(0.7), math.log(gfc.TAU_MIN / 2), None],
                         ids=["tcos", "tau_clamped", "dot"])
def test_aggregate_recomputed_map_keeps_the_bytes(log_tau, dtype):
    """Recomputing the cosine map in the backward changes no bit of the
    output, S_C, the three input gradients or tau_raw's gradient."""
    rng = np.random.default_rng(8)
    inputs = [rng.normal(size=shape).astype(dtype) for shape in
              [(2, 2, 4, 3), (2, 2, 9, 3), (2, 2, 9, 3)]]
    d_out = rng.normal(size=(2, 2, 4, 3)).astype(dtype)
    runs = []
    for fn in (gfc.soft_aggregate, soft_aggregate_keep_map):
        tau_raw = None if log_tau is None else param("tau_raw", log_tau, dtype)
        out, s_c, back = fn(*inputs, tau_raw)
        runs.append([out, s_c, *back(d_out), getattr(tau_raw, "grad", None)])
    got, want = runs
    assert (want[-1] is not None) == (log_tau == math.log(0.7))   # only tcos inside the clamp
    for g, w in zip(got, want):
        assert (g is None and w is None) or (g.dtype == w.dtype and g.tobytes() == w.tobytes())


# ---------------------------------------------------------------------------
# gated_fuse
# ---------------------------------------------------------------------------

def _zero_gate(dp, dtype=F64):
    return T.Mlp2Params(param("w1", np.zeros((dp, 2 * dp))), param("b1", np.zeros(dp)),
                        param("w2", np.zeros((1, dp))), param("b2", np.zeros(1)))


def test_fuse_zero_gate_is_half_blend():
    rng = np.random.default_rng(9)
    cv, ca = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    out, _ = gfc.gated_fuse(cv, ca, _zero_gate(3))
    np.testing.assert_allclose(out, 0.5 * cv + 0.5 * ca, rtol=1e-15)


def test_fuse_equal_operands_fixed_point():
    rng = np.random.default_rng(10)
    cv = rng.normal(size=(5, 4))
    gate = _zero_gate(4)
    for q in gate.params():
        q.value = rng.normal(size=q.value.shape)
    out, _ = gfc.gated_fuse(cv, cv.copy(), gate)
    np.testing.assert_allclose(out, cv, rtol=1e-12)


def test_fuse_saturated_gate_selects_cv():
    rng = np.random.default_rng(11)
    cv, ca = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    gate = _zero_gate(4)
    gate.b2.value = np.array([30.0])
    out, _ = gfc.gated_fuse(cv, ca, gate)
    np.testing.assert_allclose(out, cv, atol=1e-4)


def test_fuse_output_between_operands():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cv, ca = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        gate = _zero_gate(5)
        for q in gate.params():
            q.value = rng.normal(size=q.value.shape)
        out, _ = gfc.gated_fuse(cv, ca, gate)
        lo, hi = np.minimum(cv, ca), np.maximum(cv, ca)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_fuse_rejects_operands_of_different_shapes():
    with pytest.raises(DimensionError, match="gated_fuse: operand shapes differ"):
        gfc.gated_fuse(np.zeros((4, 3)), np.zeros((5, 3)), _zero_gate(3))


# ---------------------------------------------------------------------------
# project_queries / compute_assignment
# ---------------------------------------------------------------------------

def test_queries_identity_single_head():
    c = np.random.default_rng(14).normal(size=(4, 6))
    q, _ = gfc.project_queries(c, param("wq", np.eye(6)), heads=1)
    np.testing.assert_array_equal(q[0], c)


def test_queries_identity_two_heads_split():
    c = np.random.default_rng(15).normal(size=(4, 6))
    q, _ = gfc.project_queries(c, param("wq", np.eye(6)), heads=2)
    np.testing.assert_array_equal(q[0], c[:, :3])
    np.testing.assert_array_equal(q[1], c[:, 3:])


def test_queries_zero_projection():
    q, _ = gfc.project_queries(np.ones((3, 4)), param("wq", np.zeros((4, 4))), heads=2)
    np.testing.assert_array_equal(q, np.zeros((2, 3, 2)))


def test_queries_indivisible_heads():
    for width, heads in [(5, 2), (4, 0), (4, -2)]:
        with pytest.raises(ConfigError, match=f"channel width {width} not divisible by {heads} heads"):
            gfc.split_heads(np.ones((3, width)), heads)


def test_assignment_keeps_row_max():
    rng = np.random.default_rng(16)
    for _ in range(50):
        p_s = rng.normal(size=(10, 4))
        q = rng.normal(size=(3, 4))
        alpha, beta = float(rng.uniform(0.2, 2.0)), float(rng.normal())
        assign, _ = gfc.compute_assignment(p_s, q, alpha, beta)
        # independent dense recomputation
        pn = p_s / np.linalg.norm(p_s, axis=-1, keepdims=True)
        qn = q / np.linalg.norm(q, axis=-1, keepdims=True)
        dense = 1.0 / (1.0 + np.exp(-(alpha * pn @ qn.T + beta)))
        np.testing.assert_array_equal(assign.cols, dense.argmax(axis=-1))
        np.testing.assert_allclose(assign.weights, dense.max(axis=-1), rtol=1e-10)
        assert np.all(assign.weights > 0) and np.all(assign.weights < 1)


def test_assignment_orthogonal_case():
    # pixel 0 parallel to query 0 and orthogonal to query 1: kept weight sigmoid(1).
    p_s = np.array([[2.0, 0.0]])
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    assign, _ = gfc.compute_assignment(p_s, q, alpha=1.0, beta=0.0)
    assert assign.cols[0] == 0
    np.testing.assert_allclose(assign.weights[0], SIGMOID_1, rtol=1e-12)


def test_assignment_alpha_zero_tie_breaks_low():
    rng = np.random.default_rng(17)
    assign, _ = gfc.compute_assignment(rng.normal(size=(6, 3)), rng.normal(size=(4, 3)),
                                       alpha=0.0, beta=0.3)
    np.testing.assert_array_equal(assign.cols, np.zeros(6, dtype=np.int32))
    np.testing.assert_allclose(assign.weights, 1.0 / (1.0 + math.exp(-0.3)), rtol=1e-12)


def test_assignment_scale_invariance():
    rng = np.random.default_rng(18)
    p_s = rng.normal(size=(8, 5))
    q = rng.normal(size=(3, 5))
    a0, _ = gfc.compute_assignment(p_s, q, 1.3, -0.2)
    a1, _ = gfc.compute_assignment(7.5 * p_s, q, 1.3, -0.2)
    np.testing.assert_array_equal(a0.cols, a1.cols)
    np.testing.assert_allclose(a0.weights, a1.weights, rtol=1e-10)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _toy_assignment(cols, weights):
    cols = np.asarray(cols, dtype=np.int32)
    return gfc.HardAssignment(cols, np.asarray(weights, dtype=F64), m=int(cols.max()) + 1)


def test_dispatch_zero_projection_is_identity():
    rng = np.random.default_rng(20)
    p = rng.normal(size=(1, 5, 3))
    centers = rng.normal(size=(1, 1, 2, 4))
    assign = _toy_assignment(rng.integers(0, 2, size=(1, 1, 5)), rng.uniform(0.1, 0.9, (1, 1, 5)))
    out, _ = gfc.dispatch(p, assign, centers, param("fc", np.zeros((3, 4))),
                          param("b", np.zeros(3)))
    np.testing.assert_array_equal(out, p)


def test_dispatch_unit_weight_adds_center():
    c0 = np.array([1.0, -2.0, 0.5])
    centers = np.zeros((1, 1, 2, 3))
    centers[0, 0, 1] = c0
    p = np.zeros((1, 2, 3))
    assign = _toy_assignment([[[1, 0]]], [[[1.0, 1.0]]])
    out, _ = gfc.dispatch(p, assign, centers, param("fc", np.eye(3)), param("b", np.zeros(3)))
    np.testing.assert_array_equal(out[0, 0], c0)
    np.testing.assert_array_equal(out[0, 1], np.zeros(3))


def test_dispatch_shared_center_equal_increments():
    rng = np.random.default_rng(21)
    p = rng.normal(size=(1, 4, 3))
    centers = rng.normal(size=(1, 1, 3, 3))
    assign = _toy_assignment([[[2, 2, 0, 1]]], [[[0.6, 0.6, 0.3, 0.9]]])
    out, _ = gfc.dispatch(p, assign, centers, param("fc", rng.normal(size=(3, 3))),
                          param("b", rng.normal(size=3)))
    inc = out - p
    np.testing.assert_allclose(inc[0, 0], inc[0, 1], rtol=1e-12)


@pytest.mark.parametrize("cols, weights, match", [
    (np.int32([[[5, 0]]]), [[[0.5, 0.5]]], "center 5 of 2"),
    (np.int32([[[-1, 0]]]), [[[0.5, 0.5]]], "center -1 of 2"),
    (np.int32([[[1, 0]]]), [[[0.5, 0.5, 0.5]]], r"int32 \(1, 1, 2\), weights \(1, 1, 3\)"),
    (np.float32([[[1, 0]]]), [[[0.5, 0.5]]], "integer cols .* float32"),
], ids=["5", "-1", "weights_wider_than_cols", "float32_cols"])
def test_dispatch_dangling_index(cols, weights, match):
    with pytest.raises(ConfigError, match=match):
        gfc.dispatch(np.zeros((1, 2, 3)), gfc.HardAssignment(cols, np.asarray(weights), m=2),
                     np.zeros((1, 1, 2, 4)), param("fc", np.zeros((3, 4))),
                     param("b", np.zeros(3)))


@pytest.mark.parametrize("p_shape, cols_shape, centers_shape", [
    ((2, 5, 4), (2, 3, 5), (2, 2, 3, 2)),
    ((2, 5, 4), (2, 2, 4), (2, 2, 3, 2)),
    ((2, 5, 4), (2, 5), (2, 2, 3, 2)),
    ((2, 5, 4), (1, 2, 5), (2, 2, 3, 2)),
    ((2, 1, 4), (2, 2, 5), (2, 2, 3, 2)),
    ((2, 5, 4), (1, 2, 5), (1, 2, 3, 2)),
    ((2, 5, 4), (2, 2, 5), (2, 2, 6)),
], ids=["extra_head", "n_minus_1_pixels", "2d_cols", "batch_1_cols", "1_pixel_p",
        "batch_1_centers", "3d_centers"])
def test_dispatch_rejects_cols_that_do_not_fit(p_shape, cols_shape, centers_shape):
    """cols must be (B, heads, n) for p (B, n, d) and centers (B, heads, m, dh);
    a wrong batch must not broadcast onto another image's centers."""
    assign = gfc.HardAssignment(np.zeros(cols_shape, np.int32), np.full(cols_shape, 0.5), m=3)
    with pytest.raises(DimensionError, match=r"dispatch: cols .* do not fit pixels"):
        gfc.dispatch(np.zeros(p_shape), assign, np.zeros(centers_shape),
                     param("fc", np.zeros((4, 4))), param("b", np.zeros(4)))


def dispatch_scatter_oracle(cols, d_sel, m, dtype):
    """d_centers of dispatch by np.add.at into a zeroed (B, M, m, dh) buffer of ``dtype``."""
    bsz, heads, _, dh = d_sel.shape
    flat = np.zeros((bsz * heads * m, dh), dtype=dtype)
    rows = (cols.reshape(bsz * heads, -1) + (np.arange(bsz * heads) * m)[:, None]).ravel()
    np.add.at(flat, rows, d_sel.reshape(-1, dh))
    return flat.reshape(bsz, heads, m, dh)


def test_dispatch_center_gradient_matches_scatter_oracle():
    # float32 centers under a float64 gradient: the center gradient must
    # still come back in the centers' dtype.
    rng = np.random.default_rng(23)
    bsz, heads, n, m, dh = 2, 2, 40, 5, 3
    centers = rng.normal(size=(bsz, heads, m, dh)).astype(np.float32)
    cols = rng.integers(0, m - 1, size=(bsz, heads, n)).astype(np.int32)   # center m-1 empty
    weights = rng.uniform(0.2, 0.8, size=cols.shape).astype(np.float32)
    fc = param("fc", np.eye(heads * dh), np.float32)
    b = param("b", np.zeros(heads * dh), np.float32)
    p = rng.normal(size=(bsz, n, heads * dh)).astype(np.float32)
    out, back = gfc.dispatch(p, gfc.HardAssignment(cols, weights, m=m), centers, fc, b)
    d_out = rng.normal(size=out.shape)
    _, _, d_centers = back(d_out)

    d_sel = gfc.split_heads(d_out, heads) * weights[..., None]
    want = dispatch_scatter_oracle(cols, d_sel, m, np.float32)
    # np.add.at rounds to float32 after each of at most n additions
    bound = n * np.finfo(np.float32).eps * dispatch_scatter_oracle(cols, np.abs(d_sel), m, F64)
    assert d_centers.dtype == np.float32
    assert np.all(np.abs(d_centers - want) <= bound)
    assert np.all(d_centers[:, :, m - 1] == 0.0)


# ---------------------------------------------------------------------------
# full block
# ---------------------------------------------------------------------------

def test_block_identity_at_init():
    rng = np.random.default_rng(23)
    p = gfc.make_gfc_params(rng, d=8, dp=8, heads=2, grid_hw=(2, 2), dtype=F64)
    x = rng.normal(size=(2, 4, 4, 8))
    y, state, _ = gfc.gfc_block_forward(x, p)
    np.testing.assert_array_equal(y, x)
    assert state.assignment.cols.shape == (2, 2, 16)


def test_block_sharing_bit_identical():
    rng = np.random.default_rng(24)
    p1 = toy_block(rng)
    p2 = toy_block(rng, owns=False)
    x = rng.normal(size=(1, 4, 4, 8))
    y1, st1, _ = gfc.gfc_block_forward(x, p1)
    _, st2, _ = gfc.gfc_block_forward(y1, p2, shared=st1.assignment)
    assert st2.assignment is st1.assignment
    np.testing.assert_array_equal(st2.assignment.cols, st1.assignment.cols)


def test_block_shared_shape_mismatch():
    rng = np.random.default_rng(25)
    p1 = toy_block(rng)
    p2 = toy_block(rng, owns=False)
    x = rng.normal(size=(1, 4, 4, 8))
    _, st1, _ = gfc.gfc_block_forward(x, p1)
    bad = gfc.HardAssignment(st1.assignment.cols[..., :8], st1.assignment.weights[..., :8],
                             st1.assignment.m)
    with pytest.raises(ConfigError):
        gfc.gfc_block_forward(x, p2, shared=bad)
    short_weights = gfc.HardAssignment(st1.assignment.cols, st1.assignment.weights[..., :5],
                                       st1.assignment.m)
    with pytest.raises(ConfigError, match=r"weights \(1, 2, 5\)"):
        gfc.gfc_block_forward(x, p2, shared=short_weights)
    float_cols = gfc.HardAssignment(st1.assignment.cols.astype(np.float32),
                                    st1.assignment.weights, st1.assignment.m)
    with pytest.raises(ConfigError, match="integer cols"):
        gfc.gfc_block_forward(x, p2, shared=float_cols)


@pytest.mark.parametrize("owns", [False, True],
                         ids=["consumer_without_shared", "owner_with_shared"])
def test_block_consumer_without_assignment(owns):
    """A block takes a shared assignment exactly when it has no query parameters."""
    rng = np.random.default_rng(26)
    x = rng.normal(size=(1, 4, 4, 8))
    _, st, _ = gfc.gfc_block_forward(x, toy_block(rng))
    shared = st.assignment if owns else None
    with pytest.raises(ConfigError):
        gfc.gfc_block_forward(x, toy_block(rng, owns=owns), shared=shared)


def test_block_single_vs_dual_head_duplication():
    """An M=2 block built by duplicating every channel of an M=1 block picks
    identical argmax columns in both heads."""
    rng = np.random.default_rng(27)
    dh = 4
    p1 = toy_block(rng, d=6, dp=dh, heads=1, grid=(2, 2))
    x = rng.normal(size=(1, 4, 4, 6))

    p2 = toy_block(rng, d=6, dp=2 * dh, heads=2, grid=(2, 2))
    dup = lambda w: np.concatenate([w, w], axis=0)          # duplicate output rows
    p2.w_s.value = dup(p1.w_s.value)
    p2.b_s.value = dup(p1.b_s.value)
    p2.w_v.value = dup(p1.w_v.value)
    p2.b_v.value = dup(p1.b_v.value)
    p2.agg.tau_raw.value = p1.agg.tau_raw.value.copy()
    g1, g2 = p1.agg.gate, p2.agg.gate
    a, b = g1.w1.value[:, :dh], g1.w1.value[:, dh:]
    half_row = 0.5 * np.concatenate([a, a, b, b], axis=1)   # acts on [cv,cv,agg,agg]
    g2.w1.value = np.concatenate([half_row, half_row], axis=0)
    g2.b1.value = dup(g1.b1.value)
    g2.w2.value = 0.5 * np.concatenate([g1.w2.value, g1.w2.value], axis=1)
    g2.b2.value = g1.b2.value.copy()
    wq = p1.query.w_q.value
    p2.query.w_q.value = 0.5 * np.block([[wq, wq], [wq, wq]])
    p2.query.alpha.value = p1.query.alpha.value.copy()
    p2.query.beta.value = p1.query.beta.value.copy()

    _, st1, _ = gfc.gfc_block_forward(x, p1)
    _, st2, _ = gfc.gfc_block_forward(x, p2)
    np.testing.assert_array_equal(st2.assignment.cols[0, 0], st1.assignment.cols[0, 0])
    np.testing.assert_array_equal(st2.assignment.cols[0, 1], st1.assignment.cols[0, 0])


def test_block_fa_off_equals_saturated_gate():
    rng = np.random.default_rng(30)
    p_on = live(toy_block(rng), rng)
    for q in p_on.agg.gate.params():
        q.value = np.zeros_like(q.value)
    p_on.agg.gate.b2.value = np.array([40.0])   # g -> 1: fused centers -> pooled centers
    p_off = dataclasses.replace(p_on, agg=None)
    assert p_off.flags == gfc.BlockFlags(fa=False, tcos=False)
    x = rng.normal(size=(1, 4, 4, 8))
    y_on, st_on, _ = gfc.gfc_block_forward(x, p_on)
    y_off, st_off, _ = gfc.gfc_block_forward(x, p_off)
    np.testing.assert_array_equal(st_on.assignment.cols, st_off.assignment.cols)
    np.testing.assert_allclose(y_on, y_off, atol=1e-10)
    assert st_off.soft_sim is None and st_on.soft_sim is not None


@pytest.mark.parametrize("fa", [True, False])
@pytest.mark.parametrize("tcos", [True, False])
def test_block_flags_are_read_from_its_parameters(fa, tcos):
    """flags is not a stored field: it says whether the block holds agg and
    agg.tau_raw, so a block without agg reports tcos=False."""
    p = toy_block(np.random.default_rng(36), flags=gfc.BlockFlags(fa, tcos))
    assert "flags" not in [f.name for f in dataclasses.fields(gfc.GfcParams)]
    assert p.flags == gfc.BlockFlags(fa=fa, tcos=fa and tcos)
    assert (p.agg is not None, fa and p.agg.tau_raw is not None) == (fa, fa and tcos)


def test_block_fa_off_ignores_tcos():
    """Without aggregation tcos acts on nothing: both settings build the same
    parameters and give bitwise the same output (three distinct blocks, not four)."""
    blocks = [live(toy_block(np.random.default_rng(37), flags=gfc.BlockFlags(fa=False, tcos=t)),
                   np.random.default_rng(38)) for t in (True, False)]
    assert [(q.name, q.value.tobytes()) for q in blocks[0].params()] == \
        [(q.name, q.value.tobytes()) for q in blocks[1].params()]
    x = np.random.default_rng(39).normal(size=(1, 4, 4, 8))
    y_t, y_f = (gfc.gfc_block_forward(x, p)[0] for p in blocks)
    assert y_t.tobytes() == y_f.tobytes()


def _run_block(x_width=8, flags=gfc.BlockFlags(), owns=True, **changes):
    rng = np.random.default_rng(40)
    p = dataclasses.replace(toy_block(rng, flags=flags, owns=owns), **changes)
    return gfc.gfc_block_forward(rng.normal(size=(1, 4, 4, x_width)), p)


LAYOUT = "a block has w_s and b_s exactly when it has agg or query"
BAD_BLOCKS = {   # id: (call, error class, fixed part of the message)
    "clustering width 6 over 4 heads": (
        lambda: toy_block(np.random.default_rng(0), dp=6, heads=4), ConfigError,
        "clustering width 6 not divisible by 4 heads"),
    "clustering width 8 over 0 heads": (
        lambda: toy_block(np.random.default_rng(0), heads=0), ConfigError,
        "clustering width 8 not divisible by 0 heads"),
    "5-wide norm1_b on an 8-wide block": (
        lambda: _run_block(norm1_b=param("b", np.zeros(5))), DimensionError,
        r"layer_norm: gamma \(8,\), beta \(5,\) != \(8,\)"),
    "5-wide norm2_g on an 8-wide block": (
        lambda: _run_block(norm2_g=param("g", np.ones(5))), DimensionError,
        r"layer_norm: gamma \(5,\), beta \(8,\) != \(8,\)"),
    "5-wide input to an 8-wide block": (
        lambda: _run_block(x_width=5), DimensionError,
        r"gfc block: expected a \(B, H, W, C\) map, C = 8, got \(1, 4, 4, 5\)"),
    # layouts make_gfc_params cannot build
    "gate on a consumer without w_s": (
        lambda: _run_block(flags=gfc.BlockFlags(fa=False), owns=False,
                           agg=gfc.Aggregation(None, _zero_gate(8))),
        ConfigError, LAYOUT),
    "w_s on a consumer without a gate": (
        lambda: _run_block(owns=False, agg=None), ConfigError, LAYOUT),
    "owner without w_s and b_s": (lambda: _run_block(w_s=None, b_s=None), ConfigError, LAYOUT),
}


@pytest.mark.parametrize("bad", sorted(BAD_BLOCKS))
def test_block_rejects_bad_configuration(bad):
    call, error, message = BAD_BLOCKS[bad]
    with pytest.raises(error, match=message):
        call()


def _block_fd(run, x0, w, plist):
    """FD over the input and every parameter; each gets a nonzero gradient."""
    grad_check(run, [x0], w, params=plist, tol=1e-4)
    assert [q.name for q in plist if not np.any(q.grad)] == []


def test_block_grad_matches_fd_all_flags():
    rng = np.random.default_rng(31)
    p = live(toy_block(rng, d=4, dp=4, heads=2, grid=(2, 2)), rng)
    x0 = rng.normal(size=(1, 3, 3, 4))
    _block_fd(lambda x: gfc.gfc_block_forward(x, p), x0,
              np.random.default_rng(0).normal(size=x0.shape), p.params())


def test_block_grad_matches_fd_reduced_flags():
    rng = np.random.default_rng(32)
    flags = gfc.BlockFlags(tcos=False)
    p = live(toy_block(rng, d=4, dp=4, heads=1, grid=(2, 2), flags=flags), rng)
    x0 = rng.normal(size=(1, 3, 3, 4))
    _block_fd(lambda x: gfc.gfc_block_forward(x, p), x0,
              np.random.default_rng(0).normal(size=x0.shape), p.params())


def test_block_clamped_temperature_gets_no_gradient():
    """Below TAU_MIN the clamp holds the temperature constant: tau_raw gets no
    gradient, in agreement with finite differences, and every other parameter does."""
    rng = np.random.default_rng(35)
    p = live(toy_block(rng, d=4, dp=4, heads=2, grid=(2, 2)), rng)
    tau_raw = p.agg.tau_raw
    tau_raw.value = np.asarray(math.log(gfc.TAU_MIN / 2))
    x0 = rng.normal(size=(1, 3, 3, 4))
    grad_check(lambda x: gfc.gfc_block_forward(x, p), [x0],
               np.random.default_rng(0).normal(size=x0.shape), params=p.params(), tol=1e-4)
    assert tau_raw.grad is None
    assert [q.name for q in p.params() if q is not tau_raw and not np.any(q.grad)] == []


def two_block_stage(x, p1, p2):
    """An owner block and a consumer of its assignment, as one (y, backward)."""
    y1, st1, back1 = gfc.gfc_block_forward(x, p1)
    y2, _, back2 = gfc.gfc_block_forward(y1, p2, shared=st1.assignment)

    def backward(dy):
        d_y1, d_shared = back2(dy)
        return back1(d_y1, d_shared=d_shared)

    return y2, backward


def test_two_block_sharing_grad_matches_fd():
    """The consumer's weight gradient must flow back through the shared
    assignment into the owner's query parameters and activations."""
    rng = np.random.default_rng(33)
    p1 = live(toy_block(rng, d=4, dp=4, heads=2, grid=(2, 2), name="owner"), rng)
    p2 = live(toy_block(rng, d=4, dp=4, heads=2, grid=(2, 2), owns=False, name="consumer"), rng)
    w = rng.normal(size=(1, 3, 3, 4))
    x0 = rng.normal(size=w.shape)
    _block_fd(lambda x: two_block_stage(x, p1, p2), x0, w, p1.params() + p2.params())


def test_two_block_sharing_grad_matches_fd_fa_off():
    """Without aggregation a consumer never reads the similarity projection,
    so it has none; every parameter the pair keeps still gets its gradient."""
    rng = np.random.default_rng(34)
    flags = gfc.BlockFlags(fa=False)
    p1 = live(toy_block(rng, d=4, dp=4, heads=2, grid=(2, 2), flags=flags, name="owner"), rng)
    p2 = live(toy_block(rng, d=4, dp=4, heads=2, grid=(2, 2), flags=flags, owns=False,
                        name="consumer"), rng)
    assert p1.w_s is not None and p2.w_s is None and p2.b_s is None
    assert not any(".w_s" in q.name or ".b_s" in q.name for q in p2.params())
    w = rng.normal(size=(1, 3, 3, 4))
    x0 = rng.normal(size=w.shape)
    _block_fd(lambda x: two_block_stage(x, p1, p2), x0, w, p1.params() + p2.params())


# ---------------------------------------------------------------------------
# FFN
# ---------------------------------------------------------------------------

def ffn_op_by_op(x, w1, b1, dw, w2, b2):
    """The block FFN as four ops, each backward holding what it reads: the
    conv input and w2's input in the parameters' dtype, GELU's slope."""
    h1, back_f1 = T.linear(x, w1, b1)
    h1p, back_posr = pfe.pos_residual(h1, dw)
    a1, back_act = T.gelu(h1p)
    f2, back_f2 = T.linear(a1, w2, b2)
    return f2, T.chain(back_f1, back_posr, back_act, back_f2)


@pytest.mark.parametrize(("xdtype", "pdtype"), [(F64, F64), (np.float32, np.float32), (F64, np.float32)],
                         ids=["float64", "float32", "float64_map-float32_params"])
@pytest.mark.parametrize("owns", [True, False], ids=["owner", "consumer"])
def test_ffn_recompute_keeps_the_bytes(monkeypatch, xdtype, pdtype, owns):
    """Re-running the depth-wise conv and the GELU from h1 in the backward
    changes no bit of the block's output, input gradient or any parameter
    gradient, also when float32 parameters meet a float64 map. Each side's
    calls are counted, so the block reads T.ffn through the module."""
    runs, calls, sides = [], [], (T.ffn, ffn_op_by_op)
    for ffn in sides:
        monkeypatch.setattr(T, "ffn", lambda *a, ffn=ffn: calls.append(ffn) or ffn(*a))
        rng = np.random.default_rng(42)
        p = live(toy_block(rng, d=8, dp=8, heads=2, scale=3.0), rng)
        for q in p.params():
            q.value = q.value.astype(pdtype)
        x = rng.normal(size=(2, 4, 4, 8)).astype(xdtype)
        shared = None
        if not owns:
            shared = gfc.gfc_block_forward(x, p)[1].assignment
            p = dataclasses.replace(p, query=None)
        y, _, back = gfc.gfc_block_forward(x, p, shared)
        grads = back(rng.normal(size=y.shape).astype(y.dtype))
        runs.append([y, *(grads if isinstance(grads, tuple) else [grads])]
                    + [q.grad for q in p.params()])
    got, want = runs
    forwards = 1 if owns else 2      # a consumer's owner runs first
    assert calls == [sides[0]] * forwards + [sides[1]] * forwards
    assert len(got) == len(want) and got[0].dtype == xdtype
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_macs_double_n_doubles_cost():
    prev = gfc.block_macs(n=1024, m=49, d=64, dp=64, heads=2)
    for n in (2048, 4096, 8192):
        cur = gfc.block_macs(n=n, m=49, d=64, dp=64, heads=2)
        assert abs(cur / prev - 2.0) < 0.05 * 2.0
        prev = cur


def test_macs_flags_reduce_cost():
    full = gfc.block_macs(n=256, m=16, d=32, dp=32, heads=2)
    no_fa = gfc.block_macs(n=256, m=16, d=32, dp=32, heads=2,
                           flags=gfc.BlockFlags(fa=False))
    assert no_fa < full


def test_macs_consumer_without_aggregation_has_one_projection():
    n, m, d, dp, heads = 256, 16, 32, 24, 2
    kw = dict(n=n, m=m, d=d, dp=dp, heads=heads, flags=gfc.BlockFlags(fa=False))
    owner_only = m * dp * dp + n * m * dp + (n + m) * dp + 3 * heads * n * m
    assert (gfc.block_macs(**kw) - gfc.block_macs(**kw, owns_assignment=False)
            == owner_only + n * d * dp)
