"""Dense-tensor substrate: primitive layers with hand-derived backward passes.

Values are dense row-major numpy arrays in float32 (reference width) or
float64 (used by all gradient checks). Every public op here returns
``(out, backward)`` where ``backward`` maps the upstream gradient to input
gradients and accumulates parameter gradients in place. There is no
autodiff graph; composite modules chain these closures explicitly, and a
composite whose backward only runs its parts' backwards in reverse order
returns ``chain`` of them.

A parameter's gradient that is a product with a held input (``linear``'s
weight, ``dwconv2d``'s kernel) is computed in the parameter's dtype: each
operand is cast with ``astype(p.dtype, copy=False)``. Other parameter
gradients (biases, ``layer_norm``'s gamma and beta) are reduced in the
activations' dtype and cast by ``Parameter.add_grad``. A backward closure
holds only the arrays its formula reads, and it reads shapes from those
arrays: everything it holds stays alive until the backward runs, so an
input kept only for its shape adds to peak memory. The other way to hold
less is to recompute: ``ffn`` holds its hidden map alone and re-runs the
depth-wise conv and the GELU from it in its backward, through the private
forward and backward halves of ``linear`` and ``dwconv2d``. A backward
runs once; what it held is freed when it returns (``once``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np
from scipy import special

from .errors import DimensionError, ConfigError

F32 = np.float32
#: norm floor of cosine_sim; below it a row's norm is a stop-gradient constant.
COSINE_EPS = 1e-6
#: variance offset of layer_norm.
LAYER_NORM_EPS = 1e-5


def is_int(v) -> bool:   # a size: numpy refuses a bool, which is an int to isinstance
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def map_shape(x: np.ndarray, where: str, width: int | None = None) -> tuple[int, int, int, int]:
    """(B, H, W, C) of a feature map: the batch axis is required, and C == ``width`` if given."""
    if x.ndim != 4 or width not in (None, x.shape[-1]):
        raise DimensionError(f"{where}: expected a (B, H, W, C) map, C = {width or 'any'}, got {x.shape}")
    return x.shape


class Parameter:
    """A named, learnable array with an optional gradient accumulator."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.require(np.asarray(value), requirements="C")
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.value.shape

    def add_grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {self.value.shape} for {self.name}"
            )
        if self.grad is None:
            self.grad = g.astype(self.value.dtype, copy=True)
        else:
            self.grad += g


@dataclass
class ParamSet:
    """Dataclass base: ``params()`` lists the ``Parameter`` fields in declaration
    order, expanding nested ParamSets in place and skipping ``None``. Checkpoint
    entries follow this order. Sizes are properties read from the arrays."""

    def params(self) -> list[Parameter]:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Parameter):
                out.append(v)
            elif isinstance(v, ParamSet):
                out.extend(v.params())
        return out


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=F32) -> np.ndarray:
    """Normal(0, std) truncated to +-2 std, sampled via inverse CDF.

    One uniform draw per element, so the result is a pure function of the
    generator state (no rejection loop). ``ndtri(u)`` is
    ``sqrt(2) * erfinv(2u - 1)`` in one pass. ``lo`` stays the erf
    expression: ``ndtr(-2)`` is 4 ulp lower and would shift every draw.
    """
    lo = 0.5 * (1.0 + math.erf(-2.0 / math.sqrt(2.0)))
    hi = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
    u = rng.uniform(lo, hi, size=shape)
    return (std * special.ndtri(u)).astype(dtype)


def makers(rng: np.random.Generator, name: str, dtype=F32):
    """Factories (tn, zeros, const) of Parameters named ``f"{name}.{pname}"``; tn draws trunc_normal."""
    const = lambda pname, value: Parameter(f"{name}.{pname}", np.asarray(value, dtype=dtype))
    return (lambda pname, shape: const(pname, trunc_normal(rng, shape, 0.02, dtype)),
            lambda pname, shape: const(pname, np.zeros(shape, dtype=dtype)), const)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in the operands' common dtype. numpy's mixed-dtype matmul copies
    the narrower operand element by element, a transposed one slowest."""
    dt = np.result_type(a, b)
    return a.astype(dt, copy=False) @ b.astype(dt, copy=False)


def once(backward):
    """``backward`` that drops its reference on the first call, freeing what
    it held when it returns; a second call raises ConfigError."""
    box = [backward]

    def run(*args, **kwargs):
        if not box:
            raise ConfigError("a backward runs once, and this one has already run")
        return box.pop()(*args, **kwargs)

    return run


def chain(*backs):
    """One backward that feeds the upstream gradient through ``backs`` from last to first."""
    return once(lambda dy: reduce(lambda d, back: back(d), reversed(backs), dy))


def linear(x: np.ndarray, w: Parameter, bias: Parameter | None = None):
    """y[..., j] = sum_k x[..., k] * w[j, k] (+ bias[j]).

    ``x`` may carry arbitrary leading dimensions; ``w`` has shape (out, *in)
    and is read as (out, prod(in)) in C order, so a patch kernel needs no
    reshape by the caller. The leading dimensions are flattened, so the
    forward and each gradient are one 2-D GEMM over all positions, not one
    per leading index. The weight gradient is computed in ``w``'s dtype,
    so the backward holds ``x`` in it.
    """
    y = _linear_fwd(x, w, bias)
    xw = x.reshape(-1, x.shape[-1]).astype(w.value.dtype, copy=False)
    return y, once(lambda dy: _linear_bwd(dy, xw, w, bias))


def _linear_fwd(x: np.ndarray, w: Parameter, bias: Parameter | None = None) -> np.ndarray:
    """``linear``'s output alone."""
    wmat = w.value.reshape(*w.value.shape[:1], math.prod(w.value.shape[1:]))
    if x.shape[-1:] != wmat.shape[1:] or (bias is not None and bias.shape != wmat.shape[:1]):
        raise DimensionError(f"linear: input width {x.shape[-1:]} or bias {getattr(bias, 'shape', None)}"
                             f" does not fit weight {wmat.shape}")
    y = _gemm(x.reshape(-1, x.shape[-1]), wmat.T)
    if bias is not None:
        y = y + bias.value
    return y.reshape(*x.shape[:-1], y.shape[-1])


def _linear_bwd(dy: np.ndarray, x: np.ndarray, w: Parameter, bias: Parameter | None = None) -> np.ndarray:
    """``linear(x, w, bias)``'s backward at ``dy``: accumulates the weight and
    bias gradients and returns ``x``'s. ``x`` may come in any dtype."""
    wmat = w.value.reshape(*w.value.shape[:1], math.prod(w.value.shape[1:]))
    dy2 = dy.reshape(-1, dy.shape[-1])
    w.add_grad((dy2.astype(w.value.dtype, copy=False).T
                @ x.reshape(-1, wmat.shape[1]).astype(w.value.dtype, copy=False)).reshape(w.value.shape))
    if bias is not None:
        bias.add_grad(dy2.sum(axis=0))
    return _gemm(dy2, wmat).reshape(*dy.shape[:-1], wmat.shape[1])


def gelu(x: np.ndarray):
    """Exact (erf-based) GELU."""
    cdf = _normal_cdf(x)
    slope = cdf + x * (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
    return x * cdf, once(lambda dy: dy * slope)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0))))


# Only cluebench/spans.py reads this table; mlp2 calls gelu directly.
ACTIVATIONS = {"gelu": gelu}


@dataclass
class Mlp2Params(ParamSet):
    """Two-layer perceptron parameters: linear -> GELU -> linear."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter


def mlp2(x: np.ndarray, p: Mlp2Params):
    h, back1 = linear(x, p.w1, p.b1)
    a, back_act = gelu(h)
    y, back2 = linear(a, p.w2, p.b2)
    return y, chain(back1, back_act, back2)


def ffn(x: np.ndarray, w1: Parameter, b1: Parameter, dw: Parameter, w2: Parameter, b2: Parameter):
    """linear -> h + dwconv2d(h) -> GELU -> linear: the block FFN.

    The backward holds only the hidden map ``h = linear(x, w1, b1)``, in its
    own dtype, and re-runs the depth-wise conv and the GELU from it: one
    conv einsum and one erf, no GEMM (activation checkpointing). So the
    forward computes no GELU slope and makes no copy of a hidden map in the
    parameters' dtype.
    """
    h, back1 = linear(x, w1, b1)
    hidden = lambda: h + _dwconv2d_fwd(h, dw.value)

    def backward(dy: np.ndarray) -> np.ndarray:
        a, back_act = gelu(hidden())
        d_hp = back_act(_linear_bwd(dy, a, w2, b2))
        return d_hp + _dwconv2d_bwd(d_hp, h, dw)

    a = hidden()
    a *= _normal_cdf(a)
    return _linear_fwd(a, w2, b2), chain(back1, backward)


def sigmoid(x: np.ndarray):
    y = special.expit(x)

    def backward(dy: np.ndarray) -> np.ndarray:
        return dy * y * (1.0 - y)

    return y, once(backward)


def softmax(x: np.ndarray):
    """Softmax along the last axis."""
    y = special.softmax(x, axis=-1)

    def backward(dy: np.ndarray) -> np.ndarray:
        inner = (dy * y).sum(axis=-1, keepdims=True)
        return y * (dy - inner)

    return y, once(backward)


def dwconv2d(x: np.ndarray, kernel: Parameter):
    """Depth-wise 2D convolution, zero padding, output spatial size preserved.

    ``x`` is (B, H, W, C); ``kernel`` is (k, k, C) with odd k. Channels
    never mix. The input gradient is the same convolution of ``dy`` with
    the kernel flipped in both spatial axes, ``kernel[::-1, ::-1]``. The
    kernel gradient is computed in the kernel's dtype, so the backward
    holds ``x`` in it.
    """
    y = _dwconv2d_fwd(x, kernel.value)
    xk = x.astype(kernel.value.dtype, copy=False)
    return y, once(lambda dy: _dwconv2d_bwd(dy, xk, kernel))


def _dwconv2d_fwd(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``dwconv2d``'s output alone, for a kernel array ``k``."""
    if k.ndim != 3 or k.shape[0] != k.shape[1]:
        raise ConfigError(f"dwconv2d kernel must be square (k, k, C), got shape {k.shape}")
    if k.shape[0] % 2 == 0:
        raise ConfigError(f"dwconv2d kernel size must be odd, got {k.shape[0]}")
    map_shape(x, "dwconv2d", k.shape[2])
    return np.einsum("buvchw,uvc->bhwc", _taps(x, len(k)), k)


def _dwconv2d_bwd(dy: np.ndarray, x: np.ndarray, kernel: Parameter) -> np.ndarray:
    """``dwconv2d(x, kernel)``'s backward at ``dy``: accumulates the kernel
    gradient and returns ``x``'s. ``x`` may come in any dtype; its taps in
    the kernel's dtype are freed before ``dy`` is padded."""
    kd = kernel.value.dtype
    kernel.add_grad(np.einsum("buvchw,bhwc->uvc", _taps(x.astype(kd, copy=False), len(kernel.value)),
                              dy.astype(kd, copy=False)))
    return _dwconv2d_fwd(dy, kernel.value[::-1, ::-1])


def _taps(a: np.ndarray, k: int) -> np.ndarray:
    """(B, k, k, C, H, W) view: _taps(a, k)[:, u, v] is ``a`` zero-padded and shifted by tap (u, v)."""
    b, h, w, c = a.shape
    r = k // 2
    padded = np.zeros((b, h + 2 * r, w + 2 * r, c), a.dtype)
    padded[:, r:r + h, r:r + w] = a
    return np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(1, 2))


def _pool_matrix(size_in: int, size_out: int, dtype) -> np.ndarray:
    """(size_out, size_in) 0/1 matrix of the floor tiling: window i is [i*H//h, (i+1)*H//h)."""
    i, r = np.arange(size_out)[:, None], np.arange(size_in)
    return ((i * size_in // size_out <= r) & (r < (i + 1) * size_in // size_out)).astype(dtype)


def adaptive_avg_pool2d(x: np.ndarray, h: int, w: int):
    """Mean-pool (B, H, W, C) onto an h x w grid whose windows tile the input."""
    b, hh, ww, c = map_shape(x, "adaptive_avg_pool2d")
    if not all(is_int(n) for n in (h, w)):
        raise DimensionError(f"adaptive_avg_pool2d: target ({h},{w}) must be integers")
    if not (1 <= h <= hh and 1 <= w <= ww):
        raise DimensionError(f"adaptive_avg_pool2d: target ({h},{w}) exceeds source ({hh},{ww})")
    ph, pw = _pool_matrix(hh, h, x.dtype), _pool_matrix(ww, w, x.dtype)
    area = (ph.sum(axis=1)[:, None] * pw.sum(axis=1))[..., None]     # (h, w, 1)
    rows = (ph @ x.reshape(b, hh, ww * c)).reshape(b * h, ww, c)
    y = (pw @ rows).reshape(b, h, w, c) / area

    def backward(dy: np.ndarray) -> np.ndarray:
        g = (pw.T @ (dy / area).reshape(b * h, w, c)).reshape(b, h, ww * c)
        return (ph.T @ g).reshape(b, hh, ww, c)

    return y, once(backward)


def cosine_sim(a: np.ndarray, b: np.ndarray):
    """Pairwise cosine similarity between row sets.

    ``a`` is (..., m, d) and ``b`` is (..., n, d); the result is (..., m, n).
    Norms are floored at ``COSINE_EPS``; the floor is a stop-gradient region.
    """
    if min(a.ndim, b.ndim) < 2 or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"cosine_sim: leading dimensions differ or rank < 2 ({a.shape} vs {b.shape})")
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(f"cosine_sim: feature widths differ ({a.shape[-1]} vs {b.shape[-1]})")
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    mask_a = na > COSINE_EPS
    mask_b = nb > COSINE_EPS
    na = np.maximum(na, COSINE_EPS)
    nb = np.maximum(nb, COSINE_EPS)
    ah = a / na
    bh = b / nb
    out = ah @ np.swapaxes(bh, -1, -2)

    def backward(dout: np.ndarray):
        # d/da_i out_ij = bh_j / na_i - out_ij * ah_i / na_i  (unclamped norm)
        da = (dout @ bh - mask_a * np.sum(dout * out, axis=-1, keepdims=True) * ah) / na
        dt = np.swapaxes(dout, -1, -2)
        db = (dt @ ah - mask_b * np.sum(dt * np.swapaxes(out, -1, -2), axis=-1, keepdims=True) * bh) / nb
        return da, db

    return out, once(backward)


def layer_norm(x: np.ndarray, gamma: Parameter, beta: Parameter):
    """Channel LayerNorm: per-position mean/variance over the last axis."""
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise DimensionError(f"layer_norm: gamma {gamma.shape}, beta {beta.shape} != {x.shape[-1:]}")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + LAYER_NORM_EPS)
    xh = xc / s
    y = xh * gamma.value + beta.value

    def backward(dy: np.ndarray) -> np.ndarray:
        d = xh.shape[-1]
        gamma.add_grad((dy * xh).reshape(-1, d).sum(axis=0))
        beta.add_grad(dy.reshape(-1, d).sum(axis=0))
        gdy = dy * gamma.value
        m1 = gdy.mean(axis=-1, keepdims=True)
        m2 = (gdy * xh).mean(axis=-1, keepdims=True)
        return (gdy - m1 - xh * m2) / s

    return y, once(backward)

