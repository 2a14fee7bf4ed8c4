"""Clustering block: soft center aggregation, hard dispatch, and the FFN.

One block updates a feature map in two residual steps. First, grid-pooled
cluster centers attend over all pixels (temperature-scaled cosine attention,
softmax over the pixel axis), a sigmoid gate blends the pooled and the
aggregated centers, each pixel is hard-assigned to its single most similar
center per head, and the selected center content is dispatched back through
an output projection. Second, a standard 4x expansion FFN with a depth-wise
positional residual refines the result: ``T.ffn``, whose backward holds only
the hidden map and re-runs the depth-wise conv and the GELU from it.

Within a stage, later blocks may reuse the first block's hard assignment;
the backward contract below threads their weight gradients back to the
owning block (the column choices are piecewise-constant and carry none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError

#: temperature floor; inside the clamp the temperature gradient is zero.
TAU_MIN = 0.01
#: FFN hidden width as a multiple of the block width.
FFN_EXPANSION = 4


@dataclass(frozen=True)
class BlockFlags:
    """The paper's structural ablations (both on for the full model). Only
    switches that no parameter value reproduces are flags: a fixed 0.5/0.5
    fusion is a zeroed gate, and no positional residual is a zero kernel.

    fa:   feature aggregation — soft attention + gated fusion updates the
          centers; off leaves centers at their grid-pooled initialization.
    tcos: temperature-scaled cosine attention; off falls back to dot-product
          attention scaled by 1/sqrt(head width). It acts only with fa:
          GfcParams.flags reports tcos=False for a block without ``agg``.
    """

    fa: bool = True
    tcos: bool = True


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d') -> (..., heads, n, d'/heads); contiguous channel slices."""
    if x.ndim < 2:
        raise DimensionError(f"split_heads: expected (..., n, d') rows, got shape {x.shape}")
    *lead, n, dp = x.shape
    if not T.is_int(heads) or heads < 1 or dp % heads:
        raise ConfigError(f"channel width {dp} not divisible by {heads} heads, a positive integer")
    return np.moveaxis(x.reshape(*lead, n, heads, dp // heads), -2, -3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of split_heads."""
    if x.ndim < 3:
        raise DimensionError(f"merge_heads: expected (..., heads, n, dh) rows, got shape {x.shape}")
    y = np.moveaxis(x, -3, -2)
    *lead, n, heads, dh = y.shape
    return np.ascontiguousarray(y).reshape(*lead, n, heads * dh)


# ---------------------------------------------------------------------------
# center initialization and aggregation
# ---------------------------------------------------------------------------

def init_centers(p_map: np.ndarray, h: int, w: int):
    """Grid-pool a (B, H, W, c) map into m = h*w center rows.

    Returns ((B, m, c), backward); backward accepts the center gradient
    and maps it back onto the input map.
    """
    bsz, hh, ww, c = T.map_shape(p_map, "init_centers")
    if h > hh or w > ww:
        raise ConfigError(f"center grid ({h},{w}) larger than feature map ({hh},{ww})")
    pooled, back_pool = T.adaptive_avg_pool2d(p_map, h, w)
    return pooled.reshape(bsz, h * w, c), T.chain(back_pool, lambda d: d.reshape(bsz, h, w, c))


def soft_aggregate(c_s: np.ndarray, p_s: np.ndarray, p_v: np.ndarray,
                   tau_raw: T.Parameter | None):
    """Attention of centers over pixels; convex value aggregation.

    S_C = softmax_pixels(sim(c_s, p_s) / tau). With ``tau_raw``, sim is the
    cosine similarity and tau = max(exp(tau_raw), TAU_MIN); backward adds
    tau_raw's gradient, none inside the clamp. Without it (the ablation),
    sim is the plain dot product and tau = sqrt(head width). Returns
    (S_C @ p_v, S_C, backward); backward(d_out) -> (d_c_s, d_p_s, d_p_v).
    backward keeps the inputs and S_C and recomputes the cosine map, if any.
    """
    # c_s (..., m, d), p_s (..., n, d), p_v (..., n, dh) and a 0-d tau_raw
    fits = (c_s.shape[:-2] + c_s.shape[-1:] == p_s.shape[:-2] + p_s.shape[-1:]
            and p_v.shape[:-1] == p_s.shape[:-1])
    if min(c_s.ndim, p_s.ndim, p_v.ndim) < 2 or not fits or getattr(tau_raw, "shape", ()) != ():
        raise DimensionError(f"soft_aggregate: centers {c_s.shape}, pixels {p_s.shape}, values {p_v.shape}"
                             f" or tau_raw {getattr(tau_raw, 'shape', None)} do not fit")
    if tau_raw is not None:
        tau_nat = float(np.exp(tau_raw.value))
        tau = max(tau_nat, TAU_MIN)
        sim = T.cosine_sim(c_s, p_s)[0]              # (..., m, n)
    else:
        tau = math.sqrt(c_s.shape[-1])
        sim = c_s @ np.swapaxes(p_s, -1, -2)
    s_c, back_soft = T.softmax(sim / tau)
    out = s_c @ p_v                                  # (..., m, dh)

    def backward(d_out: np.ndarray):
        d_sc = d_out @ np.swapaxes(p_v, -1, -2)
        d_pv = np.swapaxes(s_c, -1, -2) @ d_out
        d_logits = back_soft(d_sc)
        if tau_raw is None:
            d_sim = d_logits / tau
            return d_sim @ p_s, np.swapaxes(d_sim, -1, -2) @ c_s, d_pv
        sim, back_sim = T.cosine_sim(c_s, p_s)
        if tau_nat > TAU_MIN:
            s = float((d_logits * sim).sum())
            tau_raw.add_grad(np.asarray((-s / (tau * tau)) * tau_nat, dtype=tau_raw.value.dtype))
        return (*back_sim(d_logits / tau), d_pv)

    return out, s_c, T.once(backward)


def gated_fuse(c_v: np.ndarray, c_agg: np.ndarray, gate: T.Mlp2Params):
    """Blend pooled and aggregated centers with one sigmoid gate per center.

    out = (1 - g) * c_agg + g * c_v with g = sigmoid(mlp([c_v, c_agg])),
    g broadcast over channels. backward(d_out) -> (d_c_v, d_c_agg).
    """
    if c_v.shape != c_agg.shape or c_v.ndim < 1:
        raise DimensionError(f"gated_fuse: operand shapes differ {c_v.shape} vs {c_agg.shape}")
    dp = c_v.shape[-1]
    u = np.concatenate([c_v, c_agg], axis=-1)
    logit, back_mlp = T.mlp2(u, gate)                # (..., m, 1)
    g, back_sig = T.sigmoid(logit)
    out = (1.0 - g) * c_agg + g * c_v

    def backward(d_out: np.ndarray):
        d_cv = d_out * g
        d_cagg = d_out * (1.0 - g)
        d_g = (d_out * (c_v - c_agg)).sum(axis=-1, keepdims=True)
        d_u = back_mlp(back_sig(d_g))
        return d_cv + d_u[..., :dp], d_cagg + d_u[..., dp:]

    return out, T.once(backward)


# ---------------------------------------------------------------------------
# hard assignment and dispatch
# ---------------------------------------------------------------------------

@dataclass
class HardAssignment:
    """One kept (center, weight) pair per pixel per head.

    cols[..., i] is the argmax center of pixel i (ties resolve to the lowest
    index); weights[..., i] is the sigmoid similarity at that entry.
    """

    cols: np.ndarray     # (..., n) int32
    weights: np.ndarray  # (..., n) float
    m: int               # center count the columns index into


def project_queries(centers: np.ndarray, w_q: T.Parameter, heads: int):
    """Project fused centers to queries and split per head (no bias)."""
    q_full, back_lin = T.linear(centers, w_q)
    return split_heads(q_full, heads), T.chain(back_lin, merge_heads)


def compute_assignment(p_s: np.ndarray, q: np.ndarray, alpha: float, beta: float):
    """Hard-assign each pixel to its most similar query.

    Dense scores are sigmoid(alpha * cos(p_s, q) + beta), shape (..., n, m);
    only the per-row maximum survives. backward(d_weights) ->
    (d_p_s, d_q, d_alpha, d_beta); the column pattern is treated as constant.
    backward keeps p_s, q and the flat column indices and recomputes the scores.
    """
    def scores():
        sim, back_sim = T.cosine_sim(p_s, q)         # (..., n, m)
        return (sim, back_sim, *T.sigmoid(alpha * sim + beta))

    s_p = scores()[2]
    cols = np.argmax(s_p, axis=-1)                   # first max = lowest column
    flat = cols + np.arange(cols.size).reshape(cols.shape) * s_p.shape[-1]   # into s_p.ravel()
    assign = HardAssignment(cols.astype(np.int32), np.take(s_p, flat), m=s_p.shape[-1])

    def backward(d_weights: np.ndarray):
        sim, back_sim, s_p, back_sig = scores()
        d_sp = np.zeros_like(s_p)
        np.put(d_sp, flat, d_weights)
        d_z = back_sig(d_sp)
        d_alpha = float((d_z * sim).sum())
        d_beta = float(d_z.sum())
        d_ps, d_q = back_sim(d_z * alpha)
        return d_ps, d_q, d_alpha, d_beta

    return assign, T.once(backward)


def dispatch(p: np.ndarray, assign: HardAssignment, centers_h: np.ndarray,
             fc_out: T.Parameter, b_out: T.Parameter):
    """Residual update: each pixel receives its assigned center's content.

    p is (B, n, d); centers_h is (B, M, m, dh); assign fields are (B, M, n).
    backward(d_out) -> (d_p, d_weights, d_centers_h); fc_out/b_out gradients
    accumulate in place; backward repeats the gather instead of keeping it.
    """
    if assign.cols.dtype.kind not in "iu" or assign.weights.shape != assign.cols.shape:
        raise ConfigError(f"assignment needs integer cols and weights of their shape, got cols "
                          f"{assign.cols.dtype} {assign.cols.shape}, weights {assign.weights.shape}")
    if ((p.ndim, centers_h.ndim) != (3, 4) or len(p) != len(centers_h)
            or assign.cols.shape != (*centers_h.shape[:2], p.shape[1])):
        raise DimensionError(f"dispatch: cols {assign.cols.shape} do not fit pixels {p.shape}"
                             f" and centers {centers_h.shape}")
    bsz, heads, m, dh = centers_h.shape
    lo, hi = int(assign.cols.min(initial=0)), int(assign.cols.max(initial=0))
    if lo < 0 or hi >= m:
        raise ConfigError(f"assignment references center {lo if lo < 0 else hi} of {m}")
    rows = assign.cols + (np.arange(bsz * heads) * m).reshape(bsz, heads, 1)
    gather = lambda: np.take(centers_h.reshape(-1, dh), rows, axis=0)    # (B, M, n, dh)
    msg_h = assign.weights[..., None] * gather()
    msg = merge_heads(msg_h)                                   # (B, n, d')
    res, back_lin = T.linear(msg, fc_out, b_out)
    out = p + res

    def backward(d_out: np.ndarray):
        d_msg_h = split_heads(back_lin(d_out), heads)
        d_weights = (d_msg_h * gather()).sum(axis=-1)
        d_sel = d_msg_h * assign.weights[..., None]
        onehot = assign.cols[..., None] == np.arange(m)                # (B, M, n, m) bool
        d_centers = np.swapaxes(onehot, -1, -2) @ d_sel
        return d_out, d_weights, d_centers.astype(centers_h.dtype, copy=False)

    return out, T.once(backward)


# ---------------------------------------------------------------------------
# the full block
# ---------------------------------------------------------------------------

@dataclass
class ClusterState:
    """What one block's clustering actually did (kept for tracing).

    Arrays are batched, except inside a single-image TraceBundle; soft_sim
    is per head, (B, M, m, n), or None when aggregation is off.
    """

    centers_v: np.ndarray
    soft_sim: np.ndarray | None
    assignment: HardAssignment
    heads: int
    grid_hw: tuple[int, int]


@dataclass
class Aggregation(T.ParamSet):
    """Soft aggregation and gated fusion (BlockFlags.fa). ``tau_raw`` is the log
    temperature of the cosine attention (tcos), None for dot-product attention."""

    tau_raw: T.Parameter | None
    gate: T.Mlp2Params


@dataclass
class Query(T.ParamSet):
    """A block's own hard assignment: query projection, sigmoid scale and shift."""

    w_q: T.Parameter
    alpha: T.Parameter
    beta: T.Parameter


@dataclass
class GfcParams(T.ParamSet):
    """Everything one block owns; ``agg`` and ``query`` are its structural choices
    (``flags`` and ``owns_assignment`` are read from them). w_s and b_s, which only
    those two read, come exactly with one of them; gfc_block_forward checks it."""

    heads: int
    grid_hw: tuple[int, int]
    norm1_g: T.Parameter
    norm1_b: T.Parameter
    w_s: T.Parameter | None
    b_s: T.Parameter | None
    w_v: T.Parameter
    b_v: T.Parameter
    agg: Aggregation | None
    query: Query | None
    fc_out: T.Parameter
    b_out: T.Parameter
    norm2_g: T.Parameter
    norm2_b: T.Parameter
    ffn_w1: T.Parameter
    ffn_b1: T.Parameter
    ffn_dw: T.Parameter
    ffn_w2: T.Parameter
    ffn_b2: T.Parameter

    d = property(lambda self: self.norm1_g.shape[0])
    dp = property(lambda self: self.w_v.shape[0])
    owns_assignment = property(lambda self: self.query is not None)
    flags = property(lambda self: BlockFlags(self.agg is not None,
                                             self.agg is not None and self.agg.tau_raw is not None))


def make_gfc_params(rng: np.random.Generator, d: int, dp: int, heads: int,
                    grid_hw: tuple[int, int], flags: BlockFlags = BlockFlags(),
                    owns_assignment: bool = True, dtype=T.F32,
                    name: str = "block") -> GfcParams:
    """Initialize one block. Residual output projections (fc_out, ffn_w2)
    and every bias start at zero, which makes the whole block the identity;
    the remaining projections are truncated-normal, std 0.02."""
    if not T.is_int(heads) or heads < 1 or dp % heads:
        raise ConfigError(f"{name}: clustering width {dp} not divisible by {heads} heads, a positive integer")
    if np.shape(grid_hw) != (2,) or not all(T.is_int(n) and n >= 1 for n in grid_hw):
        raise ConfigError(f"{name}: center grid {grid_hw} is not two positive integers")

    tn, zeros, const = T.makers(rng, name, dtype)
    agg = None
    if flags.fa:    # the gate draws first: seeded networks and checkpoints depend on it
        gate = T.Mlp2Params(tn("gate.w1", (dp, 2 * dp)), zeros("gate.b1", (dp,)),
                            tn("gate.w2", (1, dp)), zeros("gate.b2", (1,)))
        agg = Aggregation(const("tau_raw", 0.0) if flags.tcos else None, gate)
    hidden = FFN_EXPANSION * d
    uses_s = flags.fa or owns_assignment
    return GfcParams(
        heads=heads, grid_hw=grid_hw,
        norm1_g=const("norm1_g", np.ones(d)), norm1_b=zeros("norm1_b", (d,)),
        w_s=tn("w_s", (dp, d)) if uses_s else None,
        b_s=zeros("b_s", (dp,)) if uses_s else None,
        w_v=tn("w_v", (dp, d)), b_v=zeros("b_v", (dp,)),
        agg=agg,
        query=Query(tn("w_q", (dp, dp)), const("alpha", 1.0), const("beta", 0.0))
        if owns_assignment else None,
        fc_out=zeros("fc_out", (d, dp)), b_out=zeros("b_out", (d,)),
        norm2_g=const("norm2_g", np.ones(d)), norm2_b=zeros("norm2_b", (d,)),
        ffn_w1=tn("ffn_w1", (hidden, d)), ffn_b1=zeros("ffn_b1", (hidden,)),
        ffn_dw=tn("ffn_dw", (3, 3, hidden)),
        ffn_w2=zeros("ffn_w2", (d, hidden)), ffn_b2=zeros("ffn_b2", (d,)),
    )


def gfc_block_forward(x: np.ndarray, p: GfcParams, shared: HardAssignment | None = None):
    """Run one block on a (B, H, W, d) map.

    Returns (y, ClusterState, backward). When the block owns its assignment,
    backward(dy, d_shared=None) -> dx, where d_shared is the accumulated
    weight gradient contributed by later blocks that reused the assignment.
    When the block consumed a shared assignment, backward(dy) ->
    (dx, d_weights) and the caller routes d_weights to the owner. Of the
    FFN's 4x-wide maps, backward holds only the hidden map, in the
    activations' dtype, and re-runs the depth-wise conv and the GELU from
    it (see ``T.ffn``).
    """
    bsz, hh, ww, d = T.map_shape(x, "gfc block", p.d)
    # {a, b} != {c} catches a pair that disagrees with itself or with the rule
    if {p.w_s is None, p.b_s is None} != {p.agg is None and p.query is None}:
        raise ConfigError("a block has w_s and b_s exactly when it has agg or query")
    if p.owns_assignment == (shared is not None):
        raise ConfigError("a block takes a shared assignment exactly when it has no query parameters")
    n = hh * ww
    heads, dp = p.heads, p.dp
    gh, gw = p.grid_hw
    if shared is not None and (shared.cols.shape != (bsz, heads, n) or shared.m != gh * gw):
        raise ConfigError(f"shared assignment cols {shared.cols.shape}, m={shared.m}"
                          f" do not match block ({bsz},{heads},{n})/m={gh * gw}")
    to_heads = lambda a: split_heads(a.reshape(bsz, n, dp), heads)    # (B,H,W,d') -> (B,M,n,dh)
    to_map = lambda a_h: merge_heads(a_h).reshape(bsz, hh, ww, dp)   # (B,M,n,dh) -> (B,H,W,d')

    xn, back_norm1 = T.layer_norm(x, p.norm1_g, p.norm1_b)
    if p.w_s is not None:    # only aggregation and the block's own assignment read p_s
        ps_map, back_ws = T.linear(xn, p.w_s, p.b_s)
    pv_map, back_wv = T.linear(xn, p.w_v, p.b_v)
    cv0, back_pool_v = init_centers(pv_map, gh, gw)          # (B,m,d')

    s_c, cvt = None, cv0
    if p.agg is not None:
        cs0, back_pool_s = init_centers(ps_map, gh, gw)
        agg_h, s_c, back_agg = soft_aggregate(split_heads(cs0, heads), to_heads(ps_map),
                                              to_heads(pv_map), p.agg.tau_raw)
        cvt, back_fuse = gated_fuse(cv0, merge_heads(agg_h), p.agg.gate)

    assign = shared
    if p.owns_assignment:
        q_h, back_q = project_queries(cvt, p.query.w_q, heads)
        assign, back_assign = compute_assignment(
            to_heads(ps_map), q_h, float(p.query.alpha.value), float(p.query.beta.value))

    y1_flat, back_disp = dispatch(x.reshape(bsz, n, d), assign, split_heads(cvt, heads),
                                  p.fc_out, p.b_out)
    y1 = y1_flat.reshape(bsz, hh, ww, d)

    y1n, back_norm2 = T.layer_norm(y1, p.norm2_g, p.norm2_b)
    f2, back_ffn = T.ffn(y1n, p.ffn_w1, p.ffn_b1, p.ffn_dw, p.ffn_w2, p.ffn_b2)
    y = y1 + f2

    state = ClusterState(centers_v=cvt, soft_sim=s_c, assignment=assign,
                         heads=heads, grid_hw=p.grid_hw)

    def backward(dy: np.ndarray, d_shared: np.ndarray | None = None):
        d_y1 = dy + back_norm2(back_ffn(dy))
        d_p, d_weights, d_cvt_h = back_disp(d_y1.reshape(bsz, n, d))
        d_cvt = merge_heads(d_cvt_h)

        # one map gradient per reader of p_s (and of p_v), in the order backward reaches them
        d_ps, d_pv = [], []
        if p.owns_assignment:
            if d_shared is not None:
                d_weights = d_weights + d_shared
            d_ps_a, d_q_h, d_alpha, d_beta = back_assign(d_weights)
            p.query.alpha.add_grad(np.asarray(d_alpha, dtype=p.query.alpha.value.dtype))
            p.query.beta.add_grad(np.asarray(d_beta, dtype=p.query.beta.value.dtype))
            d_ps.append(to_map(d_ps_a))
            d_cvt = d_cvt + back_q(d_q_h)

        d_cv0 = d_cvt
        if p.agg is not None:
            d_cv0, d_agg = back_fuse(d_cvt)
            d_cs_h, d_ps_a, d_pv_a = back_agg(split_heads(d_agg, heads))
            d_ps += [to_map(d_ps_a), back_pool_s(merge_heads(d_cs_h))]
            d_pv.append(to_map(d_pv_a))

        d_xn = back_wv(sum(d_pv + [back_pool_v(d_cv0)]))
        if d_ps:             # empty exactly when the block has no w_s
            d_xn = back_ws(sum(d_ps)) + d_xn
        dx = d_p.reshape(bsz, hh, ww, d) + back_norm1(d_xn)
        return dx if p.owns_assignment else (dx, d_weights)

    return y, state, T.once(backward)


# ---------------------------------------------------------------------------
# analytic cost model
# ---------------------------------------------------------------------------

def block_macs(n: int, m: int, d: int, dp: int, heads: int,
               flags: BlockFlags = BlockFlags(), owns_assignment: bool = True) -> int:
    """Multiply-add count of one block forward.

    It counts the forward only. The backward's FFN recompute adds
    ``9 * hidden * n + hidden * n`` per block: the depth-wise conv and the
    activation once more.

    Inventory covers the projections, the attention/assignment similarity
    matrices, gating, dispatch, norms, and the FFN. Every term is linear in
    the pixel count n except the query projection and the gate (which touch
    only the m centers), so cost is O(n) at fixed (m, d').
    """
    hidden = FFN_EXPANSION * d
    total = 0
    uses_s = flags.fa or owns_assignment
    total += (1 + uses_s) * n * d * dp       # value (+ similarity) projections
    total += n * dp                          # center grid pooling
    total += 8 * n * d * 2                   # two channel norms (approx 8 ops/elem)
    if flags.fa:
        total += m * n * dp + (n + m) * dp   # center-pixel similarities + row norms
        total += 2 * heads * m * n           # softmax exp + normalize
        total += m * n * dp                  # value aggregation
        total += m * (2 * dp * dp + dp) + m * dp + 3 * m * dp  # gate mlp + blend
    if owns_assignment:
        total += m * dp * dp                 # query projection
        total += n * m * dp + (n + m) * dp   # pixel-query similarities
        total += 3 * heads * n * m           # affine + sigmoid
    total += n * dp                          # dispatch gather/scale
    total += n * dp * d                      # dispatch output projection
    total += n * d * hidden * 2              # FFN in/out projections
    total += 9 * hidden * n                  # depth-wise positional residual
    total += n * hidden                      # activation
    return int(total)
