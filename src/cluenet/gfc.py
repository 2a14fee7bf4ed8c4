"""Clustering block: soft center aggregation, hard dispatch, and the FFN.

One block updates a feature map in two residual steps. First, grid-pooled
cluster centers attend over all pixels (temperature-scaled cosine attention,
softmax over the pixel axis), a sigmoid gate blends the pooled and the
aggregated centers, each pixel is hard-assigned to its single most similar
center per head, and the selected center content is dispatched back through
an output projection. Second, a standard 4x expansion FFN with a depth-wise
positional residual refines the result.

Within a stage, later blocks may reuse the first block's hard assignment;
the backward contract below threads their weight gradients back to the
owning block (the column choices are piecewise-constant and carry none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .pfe import pos_residual
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
          attention scaled by 1/sqrt(head width).
    """

    fa: bool = True
    tcos: bool = True


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d') -> (..., heads, n, d'/heads); contiguous channel slices."""
    *lead, n, dp = x.shape
    if dp % heads:
        raise ConfigError(f"channel width {dp} not divisible by {heads} heads")
    return np.moveaxis(x.reshape(*lead, n, heads, dp // heads), -2, -3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of split_heads."""
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
    hh, ww = p_map.shape[-3], p_map.shape[-2]
    if h > hh or w > ww:
        raise ConfigError(f"center grid ({h},{w}) larger than feature map ({hh},{ww})")
    pooled, back_pool = T.adaptive_avg_pool2d(p_map, h, w)
    centers = pooled.reshape(pooled.shape[0], h * w, p_map.shape[-1])

    def backward(d_centers: np.ndarray) -> np.ndarray:
        return back_pool(d_centers.reshape(pooled.shape))

    return centers, backward


def soft_aggregate(c_s: np.ndarray, p_s: np.ndarray, p_v: np.ndarray, tau: float,
                   cosine: bool = True):
    """Attention of centers over pixels; convex value aggregation.

    S_C = softmax_pixels(sim(c_s, p_s) / tau), where sim is the cosine
    similarity, or the plain dot product when ``cosine`` is False (the
    ablation, run at tau = sqrt(head width)). Returns (S_C @ p_v, S_C,
    backward); backward(d_out) -> (d_c_s, d_p_s, d_p_v, d_tau).
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if cosine:
        sim, back_sim = T.cosine_sim(c_s, p_s)      # (..., m, n)
    else:
        sim = c_s @ np.swapaxes(p_s, -1, -2)
        back_sim = lambda d_sim: (d_sim @ p_s, np.swapaxes(d_sim, -1, -2) @ c_s)
    s_c, back_soft = T.softmax(sim / tau)
    out = s_c @ p_v                                  # (..., m, dh)

    def backward(d_out: np.ndarray):
        d_sc = d_out @ np.swapaxes(p_v, -1, -2)
        d_pv = np.swapaxes(s_c, -1, -2) @ d_out
        d_logits = back_soft(d_sc)
        d_sim = d_logits / tau
        d_tau = -float((d_logits * sim).sum()) / (tau * tau)
        d_cs, d_ps = back_sim(d_sim)
        return d_cs, d_ps, d_pv, d_tau

    return out, s_c, backward


def gated_fuse(c_v: np.ndarray, c_agg: np.ndarray, gate: T.Mlp2Params):
    """Blend pooled and aggregated centers with one sigmoid gate per center.

    out = (1 - g) * c_agg + g * c_v with g = sigmoid(mlp([c_v, c_agg])),
    g broadcast over channels. backward(d_out) -> (d_c_v, d_c_agg).
    """
    if c_v.shape != c_agg.shape:
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

    return out, backward


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
    q_h = split_heads(q_full, heads)

    def backward(d_q_h: np.ndarray) -> np.ndarray:
        return back_lin(merge_heads(d_q_h))

    return q_h, backward


def compute_assignment(p_s: np.ndarray, q: np.ndarray, alpha: float, beta: float):
    """Hard-assign each pixel to its most similar query.

    Dense scores are sigmoid(alpha * cos(p_s, q) + beta), shape (..., n, m);
    only the per-row maximum survives. backward(d_weights) ->
    (d_p_s, d_q, d_alpha, d_beta); the column pattern is treated as constant.
    """
    sim, back_sim = T.cosine_sim(p_s, q)             # (..., n, m)
    s_p, back_sig = T.sigmoid(alpha * sim + beta)
    cols = np.argmax(s_p, axis=-1)                   # first max = lowest column
    weights = np.take_along_axis(s_p, cols[..., None], axis=-1)[..., 0]
    assign = HardAssignment(cols.astype(np.int32), weights, m=s_p.shape[-1])

    def backward(d_weights: np.ndarray):
        d_sp = np.zeros_like(s_p)
        np.put_along_axis(d_sp, cols[..., None], d_weights[..., None], axis=-1)
        d_z = back_sig(d_sp)
        d_alpha = float((d_z * sim).sum())
        d_beta = float(d_z.sum())
        d_ps, d_q = back_sim(d_z * alpha)
        return d_ps, d_q, d_alpha, d_beta

    return assign, backward


def dispatch(p: np.ndarray, assign: HardAssignment, centers_h: np.ndarray,
             fc_out: T.Parameter, b_out: T.Parameter):
    """Residual update: each pixel receives its assigned center's content.

    p is (B, n, d); centers_h is (B, M, m, dh); assign fields are (B, M, n).
    backward(d_out) -> (d_p, d_weights, d_centers_h); fc_out/b_out gradients
    accumulate in place.
    """
    heads, m = centers_h.shape[1:3]
    lo, hi = int(assign.cols.min(initial=0)), int(assign.cols.max(initial=0))
    if lo < 0 or hi >= m:
        raise RuntimeError(f"assignment references center {lo if lo < 0 else hi} of {m}")
    idx = assign.cols.astype(np.intp)[..., None]
    sel = np.take_along_axis(centers_h, idx, axis=2)          # (B, M, n, dh)
    msg_h = assign.weights[..., None] * sel
    msg = merge_heads(msg_h)                                   # (B, n, d')
    res, back_lin = T.linear(msg, fc_out, b_out)
    out = p + res

    def backward(d_out: np.ndarray):
        d_msg_h = split_heads(back_lin(d_out), heads)
        d_weights = (d_msg_h * sel).sum(axis=-1)
        d_sel = d_msg_h * assign.weights[..., None]
        onehot = assign.cols[..., None] == np.arange(m)                # (B, M, n, m) bool
        d_centers = np.swapaxes(onehot, -1, -2) @ d_sel
        return d_out, d_weights, d_centers.astype(centers_h.dtype, copy=False)

    return out, backward


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
class GfcParams:
    """Everything one block owns. tau_raw and gate are absent when the flags
    switch them off, w_q/alpha/beta when the block consumes a shared
    assignment, and w_s/b_s when it does both (nothing reads the similarity
    projection then)."""

    d: int
    dp: int
    heads: int
    grid_hw: tuple[int, int]
    flags: BlockFlags
    norm1_g: T.Parameter
    norm1_b: T.Parameter
    w_s: T.Parameter | None
    b_s: T.Parameter | None
    w_v: T.Parameter
    b_v: T.Parameter
    tau_raw: T.Parameter | None
    gate: T.Mlp2Params | None
    w_q: T.Parameter | None
    alpha: T.Parameter | None
    beta: T.Parameter | None
    fc_out: T.Parameter
    b_out: T.Parameter
    norm2_g: T.Parameter
    norm2_b: T.Parameter
    ffn_w1: T.Parameter
    ffn_b1: T.Parameter
    ffn_dw: T.Parameter
    ffn_w2: T.Parameter
    ffn_b2: T.Parameter

    @property
    def owns_assignment(self) -> bool:
        return self.w_q is not None

    def params(self) -> list[T.Parameter]:
        out = [self.norm1_g, self.norm1_b]
        if self.w_s is not None:
            out.extend([self.w_s, self.b_s])
        out.extend([self.w_v, self.b_v])
        if self.tau_raw is not None:
            out.append(self.tau_raw)
        if self.gate is not None:
            out.extend(self.gate.params())
        if self.w_q is not None:
            out.extend([self.w_q, self.alpha, self.beta])
        out.extend([self.fc_out, self.b_out, self.norm2_g, self.norm2_b,
                    self.ffn_w1, self.ffn_b1, self.ffn_dw, self.ffn_w2, self.ffn_b2])
        return out


def make_gfc_params(rng: np.random.Generator, d: int, dp: int, heads: int,
                    grid_hw: tuple[int, int], flags: BlockFlags = BlockFlags(),
                    owns_assignment: bool = True, dtype=T.F32,
                    name: str = "block") -> GfcParams:
    """Initialize one block. Residual output projections (fc_out, ffn_w2)
    and every bias start at zero, which makes the whole block the identity;
    the remaining projections are truncated-normal, std 0.02."""
    if dp % heads:
        raise ConfigError(f"{name}: clustering width {dp} not divisible by {heads} heads")

    def tn(pname, shape):
        return T.Parameter(f"{name}.{pname}", T.trunc_normal(rng, shape, 0.02, dtype))

    def zeros(pname, shape):
        return T.Parameter(f"{name}.{pname}", np.zeros(shape, dtype=dtype))

    def const(pname, val):
        return T.Parameter(f"{name}.{pname}", np.asarray(val, dtype=dtype))

    gate = None
    if flags.fa:
        gate = T.Mlp2Params(tn("gate.w1", (dp, 2 * dp)), zeros("gate.b1", (dp,)),
                            tn("gate.w2", (1, dp)), zeros("gate.b2", (1,)))
    hidden = FFN_EXPANSION * d
    uses_s = flags.fa or owns_assignment
    return GfcParams(
        d=d, dp=dp, heads=heads, grid_hw=grid_hw, flags=flags,
        norm1_g=const("norm1_g", np.ones(d)), norm1_b=zeros("norm1_b", (d,)),
        w_s=tn("w_s", (dp, d)) if uses_s else None,
        b_s=zeros("b_s", (dp,)) if uses_s else None,
        w_v=tn("w_v", (dp, d)), b_v=zeros("b_v", (dp,)),
        tau_raw=const("tau_raw", 0.0) if (flags.fa and flags.tcos) else None,
        gate=gate,
        w_q=tn("w_q", (dp, dp)) if owns_assignment else None,
        alpha=const("alpha", 1.0) if owns_assignment else None,
        beta=const("beta", 0.0) if owns_assignment else None,
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
    (dx, d_weights) and the caller routes d_weights to the owner.
    """
    bsz, hh, ww, d = T.map_shape(x, "gfc block")
    if d != p.d:
        raise DimensionError(f"block expects width {p.d}, got {d}")
    n = hh * ww
    heads, dp = p.heads, p.dp
    dh = dp // heads
    gh, gw = p.grid_hw
    m = gh * gw

    xn, back_norm1 = T.layer_norm(x, p.norm1_g, p.norm1_b)
    if p.w_s is not None:    # only aggregation and the block's own assignment read p_s
        ps_map, back_ws = T.linear(xn, p.w_s, p.b_s)     # (B,H,W,d')
        ps_h = split_heads(ps_map.reshape(bsz, n, dp), heads)   # (B,M,n,dh)
    pv_map, back_wv = T.linear(xn, p.w_v, p.b_v)
    pv_h = split_heads(pv_map.reshape(bsz, n, dp), heads)
    cv0, back_pool_v = init_centers(pv_map, gh, gw)          # (B,m,d')

    s_c = None
    if p.flags.fa:
        cs0, back_pool_s = init_centers(ps_map, gh, gw)
        cs_h = split_heads(cs0, heads)
        if p.flags.tcos:
            tau_nat = float(np.exp(p.tau_raw.value))
            tau = max(tau_nat, TAU_MIN)
        else:
            tau = math.sqrt(dh)
        agg_h, s_c, back_agg = soft_aggregate(cs_h, ps_h, pv_h, tau, cosine=p.flags.tcos)
        cvt, back_fuse = gated_fuse(cv0, merge_heads(agg_h), p.gate)
    else:
        cvt = cv0

    if p.owns_assignment:
        if shared is not None:
            raise ConfigError("block owns its assignment but was given a shared one")
        q_h, back_q = project_queries(cvt, p.w_q, heads)
        assign, back_assign = compute_assignment(
            ps_h, q_h, float(p.alpha.value), float(p.beta.value))
    else:
        if shared is None:
            raise ConfigError("block has no query parameters and no shared assignment")
        if shared.cols.shape != (bsz, heads, n) or shared.m != m:
            raise ConfigError(
                f"shared assignment shape {shared.cols.shape}/m={shared.m} does not match "
                f"block ({bsz},{heads},{n})/m={m}")
        assign = shared

    cvt_h = split_heads(cvt, heads)                  # (B,M,m,dh)
    y1_flat, back_disp = dispatch(x.reshape(bsz, n, d), assign, cvt_h, p.fc_out, p.b_out)
    y1 = y1_flat.reshape(bsz, hh, ww, d)

    y1n, back_norm2 = T.layer_norm(y1, p.norm2_g, p.norm2_b)
    h1, back_f1 = T.linear(y1n, p.ffn_w1, p.ffn_b1)
    h1p, back_posr = pos_residual(h1, p.ffn_dw)
    a1, back_act = T.gelu(h1p)
    f2, back_f2 = T.linear(a1, p.ffn_w2, p.ffn_b2)
    y = y1 + f2

    state = ClusterState(centers_v=cvt, soft_sim=s_c, assignment=assign,
                         heads=heads, grid_hw=p.grid_hw)

    def backward(dy: np.ndarray, d_shared: np.ndarray | None = None):
        d_y1 = dy + back_norm2(back_f1(back_posr(back_act(back_f2(dy)))))

        d_p, d_weights, d_cvt_h = back_disp(d_y1.reshape(bsz, n, d))
        d_cvt = merge_heads(d_cvt_h)
        dx = d_p.reshape(bsz, hh, ww, d)

        d_ps_h = np.zeros_like(ps_h) if p.w_s is not None else None
        d_pv_h = np.zeros_like(pv_h)
        if p.owns_assignment:
            if d_shared is not None:
                d_weights = d_weights + d_shared
            d_ps_a, d_q_h, d_alpha, d_beta = back_assign(d_weights)
            p.alpha.add_grad(np.asarray(d_alpha, dtype=p.alpha.value.dtype))
            p.beta.add_grad(np.asarray(d_beta, dtype=p.beta.value.dtype))
            d_ps_h += d_ps_a
            d_cvt = d_cvt + back_q(d_q_h)

        if p.flags.fa:
            d_cv0, d_agg = back_fuse(d_cvt)
            d_agg_h = split_heads(d_agg, heads)
            d_cs_h, d_ps_a, d_pv_a, d_tau = back_agg(d_agg_h)
            if p.flags.tcos and tau_nat > TAU_MIN:  # inside the clamp the temperature is constant
                p.tau_raw.add_grad(np.asarray(d_tau * tau_nat, dtype=p.tau_raw.value.dtype))
            d_ps_h += d_ps_a
            d_pv_h += d_pv_a
            d_ps_map = merge_heads(d_ps_h).reshape(ps_map.shape) + back_pool_s(merge_heads(d_cs_h))
        else:
            d_cv0 = d_cvt
            if p.w_s is not None:
                d_ps_map = merge_heads(d_ps_h).reshape(ps_map.shape)

        d_pv_map = merge_heads(d_pv_h).reshape(pv_map.shape) + back_pool_v(d_cv0)
        d_xn = back_wv(d_pv_map)
        if p.w_s is not None:
            d_xn = back_ws(d_ps_map) + d_xn
        dx = dx + back_norm1(d_xn)
        if p.owns_assignment:
            return dx
        return dx, d_weights

    return y, state, backward


# ---------------------------------------------------------------------------
# analytic cost model
# ---------------------------------------------------------------------------

def block_macs(n: int, m: int, d: int, dp: int, heads: int,
               flags: BlockFlags = BlockFlags(), owns_assignment: bool = True) -> int:
    """Multiply-add count of one block forward.

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
