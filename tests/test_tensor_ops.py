"""Forward semantics of the primitive layers, and two gradient regimes the op-wide FD property misses."""

import math

import numpy as np
import pytest
from scipy import special

from cluenet import tensor as T
from cluenet.errors import ConfigError, DimensionError
from fd import grad_check
from ops import F64, OPS, build, param

# Frozen oracle constants (computed with mpmath at 30 digits).
GELU_2 = 1.9544997361036415856          # 0.5*2*(1+erf(2/sqrt(2)))
SOFTMAX_1_0 = (0.7310585786300049, 0.2689414213699951)
INV_SQRT2 = 0.7071067811865475


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
    with pytest.raises(DimensionError, match=r"bias \(5,\) does not fit weight \(4, 3\)"):
        T.linear(np.zeros((2, 3)), param("w", np.zeros((4, 3))), param("b", np.zeros(5)))


def _linear_run(x, w, b, dy):
    wp, bp = T.Parameter("w", w), T.Parameter("b", b)
    y, back = T.linear(x, wp, bp)
    return y, back(dy), wp.grad, bp.grad


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_linear_is_one_gemm_over_leading_axes(dtype):
    """A (2, 3, 4, 5) map gives bitwise the results of its 24 rows as one
    (24, 5) matrix, a non-contiguous view those of its contiguous copy, and
    an (out, *in) weight those of its (out, prod(in)) reshape."""
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

    wk, xk = rng.normal(size=(6, 2, 5, 2)).astype(dtype), rng.normal(size=(2, 3, 4, 20)).astype(dtype)
    y, dx, gw, gb = _linear_run(xk, wk, b, dy)
    flat = _linear_run(xk, wk.reshape(6, 20), b, dy)
    assert gw.shape == wk.shape
    for got, want in zip((y, dx, gw.reshape(6, 20), gb), flat):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_linear_mixed_dtypes_weight_gradient_in_the_weights_dtype():
    """A float64 x meeting a float32 w gives bitwise the float64-weight y, dx
    and b.grad; w.grad is the float32 product of x and dy rounded to float32,
    so the backward holds x in float32. A float32 x meeting a float64 w is
    not downcast, and w.grad is the float64 product of x and dy widened to
    float64: a weight gradient is computed in the weight's dtype. w.grad and
    b.grad keep their parameter's dtype either way (b.grad from a float32 dy
    is its float32 sum, widened)."""
    rng = np.random.default_rng(41)
    x, dy = rng.normal(size=(3, 4, 32)), rng.normal(size=(3, 4, 6))
    w, b = rng.normal(size=(6, 32)).astype(np.float32), rng.normal(size=6).astype(np.float32)

    y, dx, gw, gb = _linear_run(x, w, b, dy)
    wide = _linear_run(x, w.astype(F64), b.astype(F64), dy)
    assert [a.dtype for a in (y, dx, gw, gb)] == [F64, F64, np.float32, np.float32]
    for got, want in zip((y, dx, gb), wide[:2] + wide[3:]):
        assert got.tobytes() == want.astype(got.dtype).tobytes()
    x32, dy32 = x.astype(np.float32), dy.astype(np.float32)
    assert gw.tobytes() == (dy32.reshape(12, 6).T @ x32.reshape(12, 32)).tobytes()
    assert np.linalg.norm(gw - wide[2]) <= 1e-5 * np.linalg.norm(wide[2])

    narrow_x = _linear_run(x32, w.astype(F64), b.astype(F64), dy32)
    wide = _linear_run(x32.astype(F64), w.astype(F64), b.astype(F64), dy32.astype(F64))
    assert [a.dtype for a in narrow_x] == [F64] * 4
    for got, want in zip(narrow_x[:2], wide):
        assert got.tobytes() == want.tobytes()
    x64, dy64 = x32.astype(F64), dy32.astype(F64)
    assert narrow_x[2].tobytes() == (dy64.reshape(12, 6).T @ x64.reshape(12, 32)).tobytes()


def _mlp(w1, b1, w2, b2):
    return T.Mlp2Params(param("w1", w1), param("b1", b1), param("w2", w2), param("b2", b2))


def test_mlp2_zero_weights():
    p = _mlp(np.zeros((3, 2)), np.zeros(3), np.zeros((1, 3)), np.zeros(1))
    y, _ = T.mlp2(np.ones((4, 2)), p)
    np.testing.assert_array_equal(y, np.zeros((4, 1)))


def test_mlp2_identity_composition():
    """With identity weights and zero biases, mlp2 is exactly the GELU."""
    p = _mlp(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
    x = np.random.default_rng(1).normal(size=(5, 3))
    y, _ = T.mlp2(x, p)
    np.testing.assert_array_equal(y, T.gelu(x)[0])


def test_mlp2_gelu_scalar():
    p = _mlp(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    y, _ = T.mlp2(np.array([[2.0]]), p)
    np.testing.assert_allclose(y[0, 0], GELU_2, rtol=1e-12)


def gelu_backward_oracle(x, dy):
    """GELU's input gradient as first written: cdf and pdf kept apart and
    combined in the backward, dy * (cdf + x * pdf)."""
    cdf = 0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return dy * (cdf + x * pdf)


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_gelu_backward_has_the_oracle_bytes(dtype):
    """The slope the forward precomputes is the oracle's expression in the
    same operation order, so the gradient keeps every bit, the signed zeros
    and the saturated tails (|x| up to 10) included."""
    x = np.concatenate([[-0.0, 0.0], np.linspace(-10.0, 10.0, 4001)]).astype(dtype)
    dy = np.random.default_rng(41).normal(size=x.shape).astype(dtype)
    _, back = T.gelu(x)
    got, want = back(dy), gelu_backward_oracle(x, dy)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


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


@pytest.mark.parametrize("x_shape, k_shape, error, message", [
    ((1, 4, 4, 1), (3, 1, 1), ConfigError, "dwconv2d kernel must be square"),
    ((1, 4, 4, 1), (3, 5, 1), ConfigError, "dwconv2d kernel must be square"),
    ((1, 4, 4, 2), (3, 3, 1), DimensionError, r"dwconv2d: expected a \(B, H, W, C\) map, C = 1, got \(1, 4, 4, 2\)"),
    ((1, 4, 4, 1), (3, 3, 2), DimensionError, r"dwconv2d: expected a \(B, H, W, C\) map, C = 2, got \(1, 4, 4, 1\)"),
    ((1, 4, 4, 1), (3, 3), ConfigError, r"dwconv2d kernel must be square \(k, k, C\), got shape \(3, 3\)"),
])
def test_dwconv_rejects_kernel_that_does_not_fit(x_shape, k_shape, error, message):
    with pytest.raises(error, match=message):
        T.dwconv2d(np.zeros(x_shape), param("k", np.zeros(k_shape)))


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


def dwconv_einsum_oracle(x, kernel, dy):
    """(y, dk, dx) of dwconv2d as first written: the kernel gradient sums the
    taps of a padded copy of x against dy."""
    h, w = x.shape[1:3]
    r = kernel.shape[0] // 2
    pad = ((0, 0), (r, r), (r, r), (0, 0))
    taps = lambda a: np.lib.stride_tricks.sliding_window_view(np.pad(a, pad), (h, w), axis=(1, 2))
    return (np.einsum("buvchw,uvc->bhwc", taps(x), kernel),
            np.einsum("buvchw,bhwc->uvc", taps(x), dy),
            np.einsum("buvchw,uvc->bhwc", taps(dy), kernel[::-1, ::-1]))


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
    # x's tap (u, v) meets dy's tap (k-1-u, k-1-v): summing dy's taps against x
    # and flipping gives the padded-x kernel gradient bit for bit
    for got, want in zip((y, kernel.grad, dx), dwconv_einsum_oracle(x, kernel.value, dy)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


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


def test_cosine_width_mismatch():
    with pytest.raises(DimensionError, match=r"cosine_sim: feature widths differ \(2 vs 3\)"):
        T.cosine_sim(np.ones((4, 2)), np.ones((5, 3)))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 2, 5, 4), (2, 3, 3, 4)),
    ((2, 5, 4), (1, 3, 4)),
    ((2, 5, 4), (3, 4)),
], ids=["heads", "broadcast_batch", "missing_batch"])
def test_cosine_leading_dimension_mismatch(a_shape, b_shape):
    with pytest.raises(DimensionError, match="cosine_sim: leading dimensions differ"):
        T.cosine_sim(np.ones(a_shape), np.ones(b_shape))


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
# gradients: an exact pass-through, and a loss that does not move
# ---------------------------------------------------------------------------

def test_grad_dwconv_identity_kernel_passthrough():
    x = np.random.default_rng(13).normal(size=(1, 3, 3, 1))
    k = param("k", _delta_kernel(3, 1))
    y, back = T.dwconv2d(x, k)
    dx = back(np.ones_like(y))
    np.testing.assert_array_equal(dx, np.ones_like(x))


def test_grad_softmax_sum_is_constant():
    # f = sum(softmax(x)) is constant, so both analytic and FD are exactly 0.
    x = np.random.default_rng(16).normal(size=(2, 5))
    y, back = T.softmax(x)
    dx = back(np.ones_like(y))
    np.testing.assert_allclose(dx, 0.0, atol=1e-15)
    # Analytic gradient is exactly 0; FD leaves ~1e-11 of rounding noise which
    # the relative-error floor (1e-6) inflates, so gate on the looser tolerance.
    grad_check(T.softmax, [x], np.ones_like(y), tol=1e-4)


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


def _trunc_normal_erfinv(rng, shape, std, dtype):
    """trunc_normal's earlier formula, sqrt(2) * erfinv(2u - 1): the oracle of its draws."""
    lo = 0.5 * (1.0 + math.erf(-2.0 / math.sqrt(2.0)))
    hi = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
    u = rng.uniform(lo, hi, size=shape)
    return (std * math.sqrt(2.0) * special.erfinv(2.0 * u - 1.0)).astype(dtype)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 2512])
def test_trunc_normal_keeps_the_erfinv_draws(seed):
    """float32 draws are bitwise the erfinv formula's; float64 draws agree
    within a few ulp. (1024, 256) is the largest seeded weight of the small
    preset (stage 4's ffn_w1)."""
    shape = (1024, 256)
    got = T.trunc_normal(np.random.default_rng(seed), shape, 0.02)
    want = _trunc_normal_erfinv(np.random.default_rng(seed), shape, 0.02, np.float32)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    got = T.trunc_normal(np.random.default_rng(seed), shape, 0.02, F64)
    want = _trunc_normal_erfinv(np.random.default_rng(seed), shape, 0.02, F64)
    assert got.dtype == F64
    assert np.all(np.abs(got - want) <= 16 * np.spacing(np.abs(want)))


def test_trunc_normal_bounds_and_determinism():
    a = T.trunc_normal(np.random.default_rng(42), (1000,), std=0.02)
    b = T.trunc_normal(np.random.default_rng(42), (1000,), std=0.02)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= 0.04 + 1e-9)
    assert a.std() > 0.01


@pytest.mark.parametrize("op", ["adaptive_avg_pool2d", "dwconv2d", "ffn", "gfc_block_owner", "icp", "init_centers",
                                "linear_transition", "patch_embed", "pos_residual"], ids=lambda op: OPS[op].fn.__name__)
def test_map_ops_require_batch_axis(op):
    fn, operands = build(op, np.random.default_rng(22), F64)
    fn(**operands)
    x = next(iter(operands))
    with pytest.raises(DimensionError, match=r"\(B, H, W, C\)"):
        fn(**{**operands, x: operands[x][0]})
