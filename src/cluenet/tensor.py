"""Dense-tensor substrate: primitive layers with hand-derived backward passes.

Values are dense row-major numpy arrays in float32 (reference width) or
float64 (used by all gradient checks). Every operation here returns
``(out, backward)`` where ``backward`` maps the upstream gradient to input
gradients and accumulates parameter gradients in place. There is no
autodiff graph; composite modules chain these closures explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionError, ConfigError

F32 = np.float32
F64 = np.float64


def map_shape(x: np.ndarray, where: str) -> tuple[int, int, int, int]:
    """(B, H, W, C) of a feature map; every map-taking op requires the batch axis."""
    if x.ndim != 4:
        raise DimensionError(f"{where}: expected a (B, H, W, C) map, got shape {x.shape}")
    return x.shape


def assert_finite(x: np.ndarray, where: str) -> None:
    """Raise if ``x`` contains NaN/Inf; non-finite values are an error state."""
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x).ravel())[0])
        raise FloatingPointError(f"non-finite value in {where} at flat index {bad}")


class Parameter:
    """A named, learnable array with an optional gradient accumulator."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        value = np.asarray(value)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.value = value if value.ndim == 0 else np.ascontiguousarray(value)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.value)

    def add_grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {self.value.shape} for {self.name}"
            )
        if self.grad is None:
            self.grad = g.astype(self.value.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=F32) -> np.ndarray:
    """Normal(0, std) truncated to +-2 std, sampled via inverse CDF.

    One uniform draw per element, so the result is a pure function of the
    generator state (no rejection loop).
    """
    lo = 0.5 * (1.0 + math.erf(-2.0 / math.sqrt(2.0)))
    hi = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
    u = rng.uniform(lo, hi, size=shape)
    return (std * math.sqrt(2.0) * special.erfinv(2.0 * u - 1.0)).astype(dtype)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def linear(x: np.ndarray, w: Parameter, bias: Parameter | None = None):
    """y[..., j] = sum_k x[..., k] * w[j, k] (+ bias[j]).

    ``x`` may carry arbitrary leading dimensions; ``w`` has shape (out, in).
    The leading dimensions are flattened, so the forward and each gradient
    are one 2-D GEMM over all positions, not one per leading index.
    """
    if x.shape[-1] != w.value.shape[1]:
        raise DimensionError(f"linear: input width {x.shape[-1]} != weight width {w.value.shape[1]}")
    x2 = x.reshape(-1, x.shape[-1])
    y = x2 @ w.value.T
    if bias is not None:
        y = y + bias.value

    def backward(dy: np.ndarray) -> np.ndarray:
        dy2 = dy.reshape(-1, dy.shape[-1])
        w.add_grad(dy2.T @ x2)
        if bias is not None:
            bias.add_grad(dy2.sum(axis=0))
        return (dy2 @ w.value).reshape(x.shape)

    return y.reshape(*x.shape[:-1], y.shape[-1]), backward


def gelu(x: np.ndarray):
    """Exact (erf-based) GELU."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    cdf = 0.5 * (1.0 + special.erf(x * inv_sqrt2))
    y = x * cdf

    def backward(dy: np.ndarray) -> np.ndarray:
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return dy * (cdf + x * pdf)

    return y.astype(x.dtype, copy=False), backward


def identity_act(x: np.ndarray):
    """Pass-through activation (test hook for composition identities)."""
    return x, lambda dy: dy


ACTIVATIONS = {"gelu": gelu, "identity": identity_act}


@dataclass
class Mlp2Params:
    """Two-layer perceptron parameters: linear -> activation -> linear."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    act: str = "gelu"

    def params(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]


def mlp2(x: np.ndarray, p: Mlp2Params):
    if p.act not in ACTIVATIONS:
        raise ConfigError(f"unknown activation tag {p.act!r}")
    h, back1 = linear(x, p.w1, p.b1)
    a, back_act = ACTIVATIONS[p.act](h)
    y, back2 = linear(a, p.w2, p.b2)

    def backward(dy: np.ndarray) -> np.ndarray:
        return back1(back_act(back2(dy)))

    return y, backward


def sigmoid(x: np.ndarray):
    # Stable in both tails: exp of a non-positive argument only.
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    y = y.astype(x.dtype, copy=False)

    def backward(dy: np.ndarray) -> np.ndarray:
        return dy * y * (1.0 - y)

    return y, backward


def softmax(x: np.ndarray):
    """Softmax along the last axis, max-subtracted for stability."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    y = y.astype(x.dtype, copy=False)

    def backward(dy: np.ndarray) -> np.ndarray:
        inner = (dy * y).sum(axis=-1, keepdims=True)
        return y * (dy - inner)

    return y, backward


def dwconv2d(x: np.ndarray, kernel: Parameter):
    """Depth-wise 2D convolution, zero padding, output spatial size preserved.

    ``x`` is (B, H, W, C); ``kernel`` is (k, k, C) with odd k. Channels
    never mix. The input gradient is the same convolution of ``dy`` with
    the kernel flipped in both spatial axes, ``kernel[::-1, ::-1]``.
    """
    _, h, w_, c = map_shape(x, "dwconv2d")
    k = kernel.value.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"dwconv2d kernel size must be odd, got {k}")
    if kernel.value.shape[0] != kernel.value.shape[1]:
        raise ConfigError("dwconv2d kernel must be square")
    if c != kernel.value.shape[2]:
        raise DimensionError(f"dwconv2d: channels {c} != kernel channels {kernel.value.shape[2]}")
    pad = ((0, 0), (k // 2, k // 2), (k // 2, k // 2), (0, 0))

    def taps(a: np.ndarray) -> np.ndarray:
        """(B, k, k, C, H, W) view: taps(a)[:, u, v] is ``a`` shifted by tap (u, v)."""
        return np.lib.stride_tricks.sliding_window_view(np.pad(a, pad), (h, w_), axis=(1, 2))

    x_taps = taps(x)
    y = np.einsum("buvchw,uvc->bhwc", x_taps, kernel.value)

    def backward(dy: np.ndarray) -> np.ndarray:
        kernel.add_grad(np.einsum("buvchw,bhwc->uvc", x_taps, dy))
        dx = np.einsum("buvchw,uvc->bhwc", taps(dy), kernel.value[::-1, ::-1])
        return dx.astype(x_taps.dtype, copy=False)     # x_taps: the closure keeps no x

    return y, backward


def _pool_matrix(size_in: int, size_out: int, dtype) -> np.ndarray:
    """(size_out, size_in) 0/1 matrix of the floor tiling: window i is [i*H//h, (i+1)*H//h)."""
    i, r = np.arange(size_out)[:, None], np.arange(size_in)
    return ((i * size_in // size_out <= r) & (r < (i + 1) * size_in // size_out)).astype(dtype)


def adaptive_avg_pool2d(x: np.ndarray, h: int, w: int):
    """Mean-pool (B, H, W, C) onto an h x w grid whose windows tile the input."""
    b, hh, ww, c = map_shape(x, "adaptive_avg_pool2d")
    if not (1 <= h <= hh and 1 <= w <= ww):
        raise DimensionError(f"adaptive_avg_pool2d: target ({h},{w}) exceeds source ({hh},{ww})")
    ph, pw = _pool_matrix(hh, h, x.dtype), _pool_matrix(ww, w, x.dtype)
    area = (ph.sum(axis=1)[:, None] * pw.sum(axis=1))[..., None]     # (h, w, 1)
    rows = (ph @ x.reshape(b, hh, ww * c)).reshape(b * h, ww, c)
    y = (pw @ rows).reshape(b, h, w, c) / area

    def backward(dy: np.ndarray) -> np.ndarray:
        g = (pw.T @ (dy / area).reshape(b * h, w, c)).reshape(b, h, ww * c)
        return (ph.T @ g).reshape(b, hh, ww, c)

    return y, backward


def cosine_sim(a: np.ndarray, b: np.ndarray, eps: float = 1e-6):
    """Pairwise cosine similarity between row sets.

    ``a`` is (..., m, d) and ``b`` is (..., n, d); the result is (..., m, n).
    Norms are floored at ``eps``; the floor is a stop-gradient region.
    """
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(f"cosine_sim: feature widths differ ({a.shape[-1]} vs {b.shape[-1]})")
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    mask_a = na > eps
    mask_b = nb > eps
    na = np.maximum(na, eps)
    nb = np.maximum(nb, eps)
    ah = a / na
    bh = b / nb
    out = ah @ np.swapaxes(bh, -1, -2)

    def backward(dout: np.ndarray):
        # d/da_i out_ij = bh_j / na_i - out_ij * ah_i / na_i  (unclamped norm)
        da = (dout @ bh - mask_a * np.sum(dout * out, axis=-1, keepdims=True) * ah) / na
        dt = np.swapaxes(dout, -1, -2)
        db = (dt @ ah - mask_b * np.sum(dt * np.swapaxes(out, -1, -2), axis=-1, keepdims=True) * bh) / nb
        return da.astype(a.dtype, copy=False), db.astype(b.dtype, copy=False)

    return out.astype(a.dtype, copy=False), backward


def layer_norm(x: np.ndarray, gamma: Parameter, beta: Parameter, eps: float = 1e-5):
    """Channel LayerNorm: per-position mean/variance over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xh = xc / s
    y = xh * gamma.value + beta.value

    def backward(dy: np.ndarray) -> np.ndarray:
        d = x.shape[-1]
        gamma.add_grad((dy * xh).reshape(-1, d).sum(axis=0))
        beta.add_grad(dy.reshape(-1, d).sum(axis=0))
        gdy = dy * gamma.value
        m1 = gdy.mean(axis=-1, keepdims=True)
        m2 = (gdy * xh).mean(axis=-1, keepdims=True)
        return (gdy - m1 - xh * m2) / s

    return y.astype(x.dtype, copy=False), backward

