"""Clustering block: aggregation, fusion, hard assignment, dispatch, FFN."""

import dataclasses
import math

import numpy as np
import pytest

from cluenet import gfc
from cluenet import tensor as T
from cluenet.errors import ConfigError
from fd import grad_check

F64 = np.float64
SIGMOID_1 = 0.7310585786300049  # frozen: 1/(1+exp(-1))


def param(name, value):
    return T.Parameter(name, np.asarray(value, dtype=F64))


def toy_block(rng, d=8, dp=8, heads=2, grid=(2, 2), flags=gfc.BlockFlags(),
              owns=True, scale=10.0, name="block"):
    """Block params in float64 with inflated weight scale so that projected
    rows sit well above the cosine eps floor during finite differencing."""
    p = gfc.make_gfc_params(rng, d, dp, heads, grid, flags, owns, dtype=F64, name=name)
    for q in p.params():
        if q.value.ndim >= 2:
            q.value = q.value * scale
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
    out, s_c, _ = gfc.soft_aggregate(c, p_sim, p_val, tau=1.0)
    np.testing.assert_allclose(out[0], v, rtol=1e-12)
    np.testing.assert_allclose(s_c.sum(), 1.0, rtol=1e-12)


def test_aggregate_two_pixel_closed_form():
    # cos similarities are [1, 0]; softmax([1,0]) is the frozen pair below.
    p_sim = np.array([[1.0, 0.0], [0.0, 1.0]])
    v1, v2 = np.array([3.0, -1.0]), np.array([0.0, 4.0])
    p_val = np.stack([v1, v2])
    c = np.array([[1.0, 0.0]])
    out, s_c, _ = gfc.soft_aggregate(c, p_sim, p_val, tau=1.0)
    w_hi, w_lo = 0.7310585786300049, 0.2689414213699951
    np.testing.assert_allclose(s_c[0], [w_hi, w_lo], rtol=1e-12)
    np.testing.assert_allclose(out[0], w_hi * v1 + w_lo * v2, rtol=1e-12)


def test_aggregate_high_temperature_flattens():
    rng = np.random.default_rng(2)
    out, s_c, _ = gfc.soft_aggregate(rng.normal(size=(3, 4)), rng.normal(size=(7, 4)),
                                     rng.normal(size=(7, 4)), tau=1e6)
    np.testing.assert_allclose(s_c, 1.0 / 7.0, atol=1e-4)


def test_aggregate_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.normal(size=(4, 5))
        p = rng.normal(size=(9, 5))
        _, s_c, _ = gfc.soft_aggregate(c, p, rng.normal(size=(9, 5)),
                                       tau=float(rng.uniform(0.05, 3.0)))
        np.testing.assert_allclose(s_c.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(s_c > 0)


def test_aggregate_rejects_bad_temperature():
    z = np.zeros((1, 2))
    with pytest.raises(ConfigError):
        gfc.soft_aggregate(z, z, z, tau=0.0)


def test_aggregate_grad_matches_fd():
    rng = np.random.default_rng(4)
    tau0 = 0.7
    w = rng.normal(size=(3, 4))
    inputs = [rng.normal(size=(3, 4)) + 1.0, rng.normal(size=(6, 4)) - 1.0,
              rng.normal(size=(6, 4)), np.array([tau0])]
    grad_check(lambda c, p, v, tau: gfc.soft_aggregate(c, p, v, float(tau[0])),
               inputs, w, tol=1e-6)


def test_aggregate_dot_grad_matches_fd():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(2, 4))
    inputs = [rng.normal(size=(2, 3)), rng.normal(size=(5, 3)), rng.normal(size=(5, 4)),
              np.array([2.0])]
    grad_check(lambda c, p, v, tau: gfc.soft_aggregate(c, p, v, float(tau[0]), cosine=False),
               inputs, w, tol=1e-6)


def test_aggregate_unit_rows_match_dot_form():
    # On unit-norm rows, cosine and dot-product attention agree at tau=sqrt(dh).
    rng = np.random.default_rng(6)
    dh = 4
    c = rng.normal(size=(3, dh))
    p = rng.normal(size=(8, dh))
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    v = rng.normal(size=(8, dh))
    out_cos, _, _ = gfc.soft_aggregate(c, p, v, tau=math.sqrt(dh))
    out_dot, _, _ = gfc.soft_aggregate(c, p, v, tau=math.sqrt(dh), cosine=False)
    np.testing.assert_allclose(out_cos, out_dot, rtol=1e-9)


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


def test_fuse_grad_matches_fd():
    rng = np.random.default_rng(13)
    gate = _zero_gate(3)
    for q in gate.params():
        q.value = rng.normal(size=q.value.shape)
    w = rng.normal(size=(4, 3))
    grad_check(lambda cv, ca: gfc.gated_fuse(cv, ca, gate),
               [rng.normal(size=(4, 3)), rng.normal(size=(4, 3))], w,
               params=gate.params(), tol=1e-6)


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
    with pytest.raises(ConfigError):
        gfc.split_heads(np.ones((3, 5)), 2)


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


def assignment_weights(p_s, q, alpha, beta):
    """compute_assignment with the kept weights as its output."""
    assign, back = gfc.compute_assignment(p_s, q, float(alpha[0]), float(beta[0]))
    return assign.weights, back


def test_assignment_grad_matches_fd():
    rng = np.random.default_rng(19)
    w = rng.normal(size=6)
    inputs = [rng.normal(size=(6, 4)) + 0.5, rng.normal(size=(3, 4)) - 0.5,
              np.array([1.1]), np.array([-0.2])]
    grad_check(assignment_weights, inputs, w, tol=1e-6)


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


@pytest.mark.parametrize("col", [5, -1])
def test_dispatch_dangling_index(col):
    with pytest.raises(RuntimeError, match=f"center {col} of 2"):
        gfc.dispatch(np.zeros((1, 2, 3)), _toy_assignment([[[col, 0]]], [[[0.5, 0.5]]]),
                     np.zeros((1, 1, 2, 4)), param("fc", np.zeros((3, 4))),
                     param("b", np.zeros(3)))


def test_dispatch_grad_matches_fd():
    rng = np.random.default_rng(22)
    fc = param("fc", rng.normal(size=(3, 4)))
    b = param("b", rng.normal(size=3))
    cols = rng.integers(0, 2, size=(1, 2, 5)).astype(np.int32)
    w = rng.normal(size=(1, 5, 3))
    p, centers = rng.normal(size=(1, 5, 3)), rng.normal(size=(1, 2, 2, 2))
    weights = rng.uniform(0.2, 0.8, size=(1, 2, 5))
    grad_check(lambda p, weights, centers: gfc.dispatch(
                   p, gfc.HardAssignment(cols, weights, m=2), centers, fc, b),
               [p, weights, centers], w, params=[fc, b], tol=1e-6)


def dispatch_scatter_oracle(cols, d_sel, m, dtype):
    """d_centers of dispatch by np.add.at into a zeroed (B, M, m, dh) buffer of ``dtype``."""
    bsz, heads, _, dh = d_sel.shape
    flat = np.zeros((bsz * heads * m, dh), dtype=dtype)
    rows = (cols.reshape(bsz * heads, -1) + (np.arange(bsz * heads) * m)[:, None]).ravel()
    np.add.at(flat, rows, d_sel.reshape(-1, dh))
    return flat.reshape(bsz, heads, m, dh)


def test_dispatch_center_gradient_matches_scatter_oracle():
    # The model's first stage: float32 centers, float64 gradient from the
    # stages after the float64-promoting pool.
    rng = np.random.default_rng(23)
    bsz, heads, n, m, dh = 2, 2, 40, 5, 3
    centers = rng.normal(size=(bsz, heads, m, dh)).astype(np.float32)
    cols = rng.integers(0, m - 1, size=(bsz, heads, n)).astype(np.int32)   # center m-1 empty
    weights = rng.uniform(0.2, 0.8, size=cols.shape).astype(np.float32)
    fc = T.Parameter("fc", np.eye(heads * dh, dtype=np.float32))
    b = T.Parameter("b", np.zeros(heads * dh, dtype=np.float32))
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


def test_block_consumer_without_assignment():
    rng = np.random.default_rng(26)
    p2 = toy_block(rng, owns=False)
    with pytest.raises(ConfigError):
        gfc.gfc_block_forward(rng.normal(size=(1, 4, 4, 8)), p2)


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
    p2.tau_raw.value = p1.tau_raw.value.copy()
    a, b = p1.gate.w1.value[:, :dh], p1.gate.w1.value[:, dh:]
    half_row = 0.5 * np.concatenate([a, a, b, b], axis=1)   # acts on [cv,cv,agg,agg]
    p2.gate.w1.value = np.concatenate([half_row, half_row], axis=0)
    p2.gate.b1.value = dup(p1.gate.b1.value)
    p2.gate.w2.value = 0.5 * np.concatenate([p1.gate.w2.value, p1.gate.w2.value], axis=1)
    p2.gate.b2.value = p1.gate.b2.value.copy()
    wq = p1.w_q.value
    p2.w_q.value = 0.5 * np.block([[wq, wq], [wq, wq]])
    p2.alpha.value = p1.alpha.value.copy()
    p2.beta.value = p1.beta.value.copy()

    _, st1, _ = gfc.gfc_block_forward(x, p1)
    _, st2, _ = gfc.gfc_block_forward(x, p2)
    np.testing.assert_array_equal(st2.assignment.cols[0, 0], st1.assignment.cols[0, 0])
    np.testing.assert_array_equal(st2.assignment.cols[0, 1], st1.assignment.cols[0, 0])


def test_block_fa_off_equals_saturated_gate():
    rng = np.random.default_rng(30)
    p_on = toy_block(rng)
    for q in p_on.gate.params():
        q.value = np.zeros_like(q.value)
    p_on.gate.b2.value = np.array([40.0])   # g -> 1: fused centers -> pooled centers
    p_off = dataclasses.replace(p_on, flags=gfc.BlockFlags(fa=False),
                                tau_raw=None, gate=None)
    x = rng.normal(size=(1, 4, 4, 8))
    y_on, st_on, _ = gfc.gfc_block_forward(x, p_on)
    y_off, st_off, _ = gfc.gfc_block_forward(x, p_off)
    np.testing.assert_allclose(y_on, y_off, atol=1e-10)
    assert st_off.soft_sim is None and st_on.soft_sim is not None


def live(p, rng):
    """Draw the zero-initialised residual projections: every parameter reaches y."""
    for q in (p.fc_out, p.ffn_w2):
        q.value = T.trunc_normal(rng, q.shape, 0.2, F64)
    return p


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
