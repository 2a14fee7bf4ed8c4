"""Forward semantics and finite-difference checks for the primitive layers."""

import numpy as np
import pytest

from cluenet import gfc, icp, pfe
from cluenet import tensor as T
from cluenet.errors import ConfigError, DimensionError
from fd import grad_check, wave

F64 = np.float64

# Frozen oracle constants (computed with mpmath at 30 digits).
GELU_2 = 1.9544997361036415856          # 0.5*2*(1+erf(2/sqrt(2)))
SOFTMAX_1_0 = (0.7310585786300049, 0.2689414213699951)
INV_SQRT2 = 0.7071067811865475


def param(name, value):
    return T.Parameter(name, np.asarray(value, dtype=F64))


# ---------------------------------------------------------------------------
# linear / mlp2
# ---------------------------------------------------------------------------

def test_linear_identity():
    x = np.array([[1.0, 2.0]])
    y, _ = T.linear(x, param("w", np.eye(2)))
    np.testing.assert_array_equal(y, [[1.0, 2.0]])


def test_linear_hand_product():
    # out[i,j] = sum_k x[i,k] w[j,k]: with x = I, row i picks column i of w^T.
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = param("w", [[3.0, 4.0], [5.0, 6.0]])
    y, _ = T.linear(x, w)
    np.testing.assert_array_equal(y, [[3.0, 5.0], [4.0, 6.0]])


def test_linear_zero_weights():
    x = np.random.default_rng(0).normal(size=(4, 3))
    y, _ = T.linear(x, param("w", np.zeros((5, 3))))
    np.testing.assert_array_equal(y, np.zeros((4, 5)))


def test_linear_shape_mismatch():
    with pytest.raises(DimensionError):
        T.linear(np.zeros((2, 3)), param("w", np.zeros((4, 5))))


def _linear_run(x, w, b, dy):
    wp, bp = T.Parameter("w", w), T.Parameter("b", b)
    y, back = T.linear(x, wp, bp)
    return y, back(dy), wp.grad, bp.grad


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_linear_is_one_gemm_over_leading_axes(dtype):
    """A (2, 3, 4, 5) map gives bitwise the results of its 24 rows as one
    (24, 5) matrix, and a non-contiguous view those of its contiguous copy."""
    rng = np.random.default_rng(40)
    x, dy = rng.normal(size=(2, 3, 4, 5)).astype(dtype), rng.normal(size=(2, 3, 4, 6)).astype(dtype)
    w, b = rng.normal(size=(6, 5)).astype(dtype), rng.normal(size=6).astype(dtype)

    y, dx, gw, gb = _linear_run(x, w, b, dy)
    rows = _linear_run(x.reshape(24, 5), w, b, dy.reshape(24, 6))
    assert y.shape == dy.shape and dx.shape == x.shape
    for got, want in zip((y.reshape(24, 6), dx.reshape(24, 5), gw, gb), rows):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    xv, dyv = x.swapaxes(1, 2), dy.swapaxes(1, 2)
    view = _linear_run(xv, w, b, dyv)
    copy = _linear_run(np.ascontiguousarray(xv), w, b, np.ascontiguousarray(dyv))
    for got, want in zip(view, copy):
        np.testing.assert_array_equal(got, want)


def _mlp(w1, b1, w2, b2, act="gelu"):
    return T.Mlp2Params(param("w1", w1), param("b1", b1), param("w2", w2), param("b2", b2), act)


def test_mlp2_zero_weights():
    p = _mlp(np.zeros((3, 2)), np.zeros(3), np.zeros((1, 3)), np.zeros(1))
    y, _ = T.mlp2(np.ones((4, 2)), p)
    np.testing.assert_array_equal(y, np.zeros((4, 1)))


def test_mlp2_identity_composition():
    p = _mlp(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3), act="identity")
    x = np.random.default_rng(1).normal(size=(5, 3))
    y, _ = T.mlp2(x, p)
    np.testing.assert_allclose(y, x, rtol=0, atol=0)


def test_mlp2_gelu_scalar():
    p = _mlp(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    y, _ = T.mlp2(np.array([[2.0]]), p)
    np.testing.assert_allclose(y[0, 0], GELU_2, rtol=1e-12)


def test_mlp2_bad_activation():
    p = _mlp(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), act="relu6")
    with pytest.raises(ConfigError):
        T.mlp2(np.zeros((1, 2)), p)


# ---------------------------------------------------------------------------
# dwconv2d
# ---------------------------------------------------------------------------

def _delta_kernel(k, c):
    ker = np.zeros((k, k, c))
    ker[k // 2, k // 2, :] = 1.0
    return ker


def test_dwconv_delta_kernel_is_identity():
    x = np.random.default_rng(2).normal(size=(1, 5, 6, 3))
    y, _ = T.dwconv2d(x, param("k", _delta_kernel(3, 3)))
    np.testing.assert_array_equal(y, x)


def test_dwconv_single_pixel_center_tap():
    x = np.random.default_rng(3).normal(size=(1, 1, 1, 2))
    ker = np.random.default_rng(4).normal(size=(3, 3, 2))
    y, _ = T.dwconv2d(x, param("k", ker))
    np.testing.assert_allclose(y, x * ker[1, 1], rtol=1e-15)


def test_dwconv_ones_tap_count():
    # 3x3 all-ones input and kernel: each output counts the in-bounds taps.
    x = np.ones((1, 3, 3, 1))
    y, _ = T.dwconv2d(x, param("k", np.ones((3, 3, 1))))
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=float)[:, :, None]
    np.testing.assert_array_equal(y[0], expected)


def test_dwconv_even_kernel_rejected():
    with pytest.raises(ConfigError):
        T.dwconv2d(np.zeros((1, 4, 4, 1)), param("k", np.zeros((2, 2, 1))))


def dwconv_loop_oracle(x, kernel, dy):
    """(y, dk, dx) of dwconv2d by one pass per kernel tap over a zero-padded copy."""
    b, h, w, c = x.shape
    k = kernel.shape[0]
    pad = k // 2
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w, :] = x
    y = np.zeros_like(x)
    dk = np.empty_like(kernel)
    dxp = np.zeros_like(xp)
    for u in range(k):
        for v in range(k):
            y += xp[:, u:u + h, v:v + w, :] * kernel[u, v]
            dk[u, v] = (dy * xp[:, u:u + h, v:v + w, :]).sum(axis=(0, 1, 2))
            dxp[:, u:u + h, v:v + w, :] += dy * kernel[u, v]
    return y, dk, dxp[:, pad:pad + h, pad:pad + w, :]


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_dwconv_matches_tap_loop_oracle(k, dtype):
    # k = 5 is wider than the 2-row map: some taps see only padding
    rng = np.random.default_rng(k)
    x = rng.normal(size=(2, 2, 5, 3)).astype(dtype)
    dy = rng.normal(size=x.shape).astype(dtype)
    kernel = T.Parameter("k", rng.normal(size=(k, k, 3)).astype(dtype))
    y, back = T.dwconv2d(x, kernel)
    dx = back(dy)
    eps = np.finfo(dtype).eps
    for got, want in zip((y, kernel.grad, dx), dwconv_loop_oracle(x, kernel.value, dy)):
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=8 * eps * np.abs(want).max())
    flipped, _ = T.dwconv2d(dy, T.Parameter("flip", kernel.value[::-1, ::-1]))
    np.testing.assert_array_equal(dx, flipped)


# ---------------------------------------------------------------------------
# adaptive_avg_pool2d
# ---------------------------------------------------------------------------

def test_pool_global_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None]
    y, _ = T.adaptive_avg_pool2d(x, 1, 1)
    np.testing.assert_allclose(y[0], [[[2.5]]])


def test_pool_identity():
    x = np.random.default_rng(5).normal(size=(1, 4, 5, 2))
    y, _ = T.adaptive_avg_pool2d(x, 4, 5)
    np.testing.assert_array_equal(y, x)


def test_pool_quadrants():
    a, b, c, d = 1.0, -2.0, 3.5, 0.25
    x = np.zeros((4, 4, 1))
    x[:2, :2], x[:2, 2:], x[2:, :2], x[2:, 2:] = a, b, c, d
    y, _ = T.adaptive_avg_pool2d(x[None], 2, 2)
    np.testing.assert_array_equal(y[0, :, :, 0], [[a, b], [c, d]])


def test_pool_target_too_large():
    with pytest.raises(DimensionError):
        T.adaptive_avg_pool2d(np.zeros((1, 2, 2, 1)), 3, 1)


def adaptive_pool_oracle(x, h, w, dy):
    """Per-window loops over the floor tiling: the mean of each window, and
    dy / area spread back over it."""
    hh, ww = x.shape[1:3]
    y = np.empty((x.shape[0], h, w, x.shape[3]), dtype=x.dtype)
    dx = np.zeros_like(x)
    for i in range(h):
        r0, r1 = i * hh // h, (i + 1) * hh // h
        for j in range(w):
            c0, c1 = j * ww // w, (j + 1) * ww // w
            y[:, i, j] = x[:, r0:r1, c0:c1].mean(axis=(1, 2))
            dx[:, r0:r1, c0:c1] += dy[:, i:i + 1, j:j + 1] / ((r1 - r0) * (c1 - c0))
    return y, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_matches_window_loop_oracle(dtype):
    rng = np.random.default_rng(8)
    for hh, ww, h, w in [(7, 10, 3, 4), (28, 28, 14, 7), (13, 5, 5, 5), (8, 8, 1, 1)]:
        x = rng.normal(size=(2, hh, ww, 3)).astype(dtype)
        dy = rng.normal(size=(2, h, w, 3)).astype(dtype)
        y, back = T.adaptive_avg_pool2d(x, h, w)
        want_y, want_dx = adaptive_pool_oracle(x, h, w, dy)
        # matmuls sum each window in another order than mean(): a few ulps
        atol = 8 * np.finfo(dtype).eps * np.abs(x).max()
        np.testing.assert_allclose(y, want_y, rtol=0, atol=atol)
        # each input cell receives exactly one dy / area term
        np.testing.assert_array_equal(back(dy), want_dx)


def test_pool_windows_partition_input():
    # Every input cell contributes to exactly one output cell, and window i
    # is the contiguous run [i*H//h, (i+1)*H//h).
    for size_in, size_out in [(7, 3), (10, 4), (5, 5), (8, 1)]:
        m = T._pool_matrix(size_in, size_out, np.float64)
        assert m.shape == (size_out, size_in)
        assert set(np.unique(m)) <= {0.0, 1.0}
        np.testing.assert_array_equal(m.sum(axis=0), np.ones(size_in))
        want = [i for i in range(size_out)
                for _ in range(i * size_in // size_out, (i + 1) * size_in // size_out)]
        assert m.argmax(axis=0).tolist() == want


# ---------------------------------------------------------------------------
# softmax / sigmoid / cosine
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    y, _ = T.softmax(np.array([3.7, 3.7]))
    np.testing.assert_allclose(y, [0.5, 0.5], rtol=1e-15)


def test_softmax_closed_form():
    y, _ = T.softmax(np.array([1.0, 0.0]))
    np.testing.assert_allclose(y, SOFTMAX_1_0, rtol=1e-12)


def test_softmax_singleton():
    y, _ = T.softmax(np.array([123.456]))
    np.testing.assert_array_equal(y, [1.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.normal(scale=5.0, size=(3, 7)).astype(np.float32)
        y, _ = T.softmax(x)
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    x = rng.normal(scale=5.0, size=(4, 9))
    y, _ = T.softmax(x)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_sigmoid_extremes_are_stable():
    y, _ = T.sigmoid(np.array([-1e4, 0.0, 1e4]))
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)


def test_cosine_self_similarity():
    a = np.array([[2.0, -1.0, 0.5]])
    y, _ = T.cosine_sim(a, a)
    np.testing.assert_allclose(y, [[1.0]], rtol=1e-12)


def test_cosine_orthogonal():
    y, _ = T.cosine_sim(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    np.testing.assert_allclose(y, [[0.0]], atol=1e-15)


def test_cosine_hand_value():
    y, _ = T.cosine_sim(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(y[0, 0], INV_SQRT2, rtol=1e-12)


def test_cosine_zero_vector_floor():
    y, _ = T.cosine_sim(np.zeros((1, 3)), np.ones((1, 3)))
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [[0.0]], atol=1e-15)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def test_layer_norm_zero_mean_unit_scale():
    x = np.random.default_rng(7).normal(size=(6, 8))
    y, _ = T.layer_norm(x, param("g", np.ones(8)), param("b", np.zeros(8)))
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# gradient checks: every primitive against central differences
# ---------------------------------------------------------------------------

def test_grad_linear():
    rng = np.random.default_rng(10)
    w = param("w", rng.normal(size=(4, 3)))
    b = param("b", rng.normal(size=4))
    grad_check(lambda x: T.linear(x, w, b), [rng.normal(size=(2, 3))], np.ones((2, 4)),
               params=[w, b])


def test_grad_mlp2():
    rng = np.random.default_rng(11)
    p = _mlp(rng.normal(size=(5, 3)), rng.normal(size=5),
             rng.normal(size=(2, 5)), rng.normal(size=2))
    grad_check(lambda x: T.mlp2(x, p), [rng.normal(size=(3, 3))], wave((3, 2)), params=p.params())


def test_grad_dwconv():
    rng = np.random.default_rng(12)
    k = param("k", rng.normal(size=(3, 3, 2)))
    grad_check(lambda x: T.dwconv2d(x, k), [rng.normal(size=(1, 4, 5, 2))], wave((1, 4, 5, 2)),
               params=[k])


def test_grad_dwconv_identity_kernel_passthrough():
    x = np.random.default_rng(13).normal(size=(1, 3, 3, 1))
    k = param("k", _delta_kernel(3, 1))
    y, back = T.dwconv2d(x, k)
    dx = back(np.ones_like(y))
    np.testing.assert_array_equal(dx, np.ones_like(x))


def test_grad_adaptive_pool():
    rng = np.random.default_rng(14)
    grad_check(lambda x: T.adaptive_avg_pool2d(x, 2, 3), [rng.normal(size=(1, 5, 7, 2))],
               wave((1, 2, 3, 2), np.sin))


def test_grad_softmax_weighted():
    rng = np.random.default_rng(15)
    w = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
    grad_check(T.softmax, [rng.normal(size=(3, 4))], w)


def test_grad_softmax_sum_is_constant():
    # f = sum(softmax(x)) is constant, so both analytic and FD are exactly 0.
    x = np.random.default_rng(16).normal(size=(2, 5))
    y, back = T.softmax(x)
    dx = back(np.ones_like(y))
    np.testing.assert_allclose(dx, 0.0, atol=1e-15)
    # Analytic gradient is exactly 0; FD leaves ~1e-11 of rounding noise which
    # the relative-error floor (1e-6) inflates, so gate on the looser tolerance.
    grad_check(T.softmax, [x], np.ones_like(y), tol=1e-4)


def test_grad_sigmoid():
    rng = np.random.default_rng(17)
    grad_check(T.sigmoid, [rng.normal(size=(4, 3))], wave((4, 3)))


def test_grad_cosine():
    rng = np.random.default_rng(18)
    w = rng.normal(size=(3, 4))
    # Rows well away from the eps floor so the clamp never engages.
    grad_check(T.cosine_sim, [rng.normal(size=(3, 5)) + 2.0, rng.normal(size=(4, 5)) - 2.0], w)


def test_grad_layer_norm():
    rng = np.random.default_rng(19)
    g = param("g", rng.normal(size=6) + 1.0)
    b = param("b", rng.normal(size=6))
    w = rng.normal(size=(4, 6))
    grad_check(lambda x: T.layer_norm(x, g, b), [rng.normal(size=(4, 6))], w, params=[g, b])


def test_grad_gelu():
    rng = np.random.default_rng(20)
    grad_check(T.gelu, [rng.normal(size=(3, 5))], np.ones((3, 5)))


# ---------------------------------------------------------------------------
# misc substrate contracts
# ---------------------------------------------------------------------------

def test_parameter_grad_accumulates():
    p = param("p", np.zeros((2, 2)))
    p.add_grad(np.ones((2, 2)))
    p.add_grad(np.ones((2, 2)))
    np.testing.assert_array_equal(p.grad, 2 * np.ones((2, 2)))
    with pytest.raises(DimensionError):
        p.add_grad(np.ones(3))


def test_trunc_normal_bounds_and_determinism():
    a = T.trunc_normal(np.random.default_rng(42), (1000,), std=0.02)
    b = T.trunc_normal(np.random.default_rng(42), (1000,), std=0.02)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= 0.04 + 1e-9)
    assert a.std() > 0.01


MAP_OPS = {
    "dwconv2d": lambda x: T.dwconv2d(x, param("k", np.zeros((3, 3, 4)))),
    "adaptive_avg_pool2d": lambda x: T.adaptive_avg_pool2d(x, 2, 2),
    "patch_embed": lambda x: pfe.patch_embed(x[..., :3], pfe.make_grid(4, 4, dtype=F64),
                                             param("w", np.zeros((2, 4, 4, 5))),
                                             param("b", np.zeros(2))),
    "gfc_block_forward": lambda x: gfc.gfc_block_forward(
        x, gfc.make_gfc_params(np.random.default_rng(0), 4, 4, 1, (2, 2), dtype=F64)),
    "icp_forward": lambda x: icp.icp_forward(
        x, icp.make_icp_params(np.random.default_rng(0), 4, 4, dtype=F64)),
    "linear_transition_forward": lambda x: icp.linear_transition_forward(
        x, icp.make_linear_transition(np.random.default_rng(0), 4, 4, dtype=F64)),
}


@pytest.mark.parametrize("op", sorted(MAP_OPS))
def test_map_ops_require_batch_axis(op):
    x = np.random.default_rng(22).normal(size=(1, 4, 4, 4))
    MAP_OPS[op](x)
    with pytest.raises(DimensionError, match=r"\(B, H, W, C\)"):
        MAP_OPS[op](x[0])


def test_assert_finite_raises():
    with pytest.raises(FloatingPointError):
        T.assert_finite(np.array([1.0, np.nan]), "unit test")
