"""Cluster pooling: 2x downsampling by averaging similarity-space clusters.

Each pixel is projected into a similarity space, seeds are grid-pooled to
the target resolution, and every pixel joins its most cosine-similar seed.
The pooled output is the per-cluster mean of the member *similarity*
vectors pushed through a small perceptron, so the similarity projection
sits on the differentiable path and learns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError


@dataclass
class PoolAssignment:
    """Hard partition produced by one pooling step.

    ``owner[..., i]`` is the cluster index of flat pixel i; clusters are the
    flat positions of the (H/2, W/2) output grid (or the identity partition
    for resolution-preserving transitions).
    """

    owner: np.ndarray            # (..., n) int32
    m: int                       # cluster count
    grid_hw: tuple[int, int]     # output grid the clusters live on


@dataclass
class IcpParams:
    """Transition parameters: similarity projection plus output perceptron.

    ``proj_v`` is the two-layer perceptron d_in -> d_out -> d_out (GELU
    between) that maps pooled similarity vectors to the next stage's width.
    """

    norm_g: T.Parameter
    norm_b: T.Parameter
    proj_f: T.Parameter                       # (d_s, d_in), no bias
    proj_v: T.Mlp2Params
    d_in: int
    d_out: int

    def params(self) -> list[T.Parameter]:
        return [self.norm_g, self.norm_b, self.proj_f] + self.proj_v.params()


def make_icp_params(rng: np.random.Generator, d_in: int, d_out: int,
                    dtype=T.F32, name: str = "trans") -> IcpParams:
    def tn(pname, shape):
        return T.Parameter(f"{name}.{pname}", T.trunc_normal(rng, shape, 0.02, dtype))

    def zeros(pname, width):
        return T.Parameter(f"{name}.{pname}", np.zeros(width, dtype=dtype))

    # draw order w1, w2, proj_f: seeded networks and checkpoints depend on it
    w1 = tn("proj_v1.w", (d_out, d_in))
    w2 = tn("proj_v2.w", (d_out, d_out))
    return IcpParams(
        norm_g=T.Parameter(f"{name}.norm_g", np.ones(d_in, dtype=dtype)),
        norm_b=zeros("norm_b", d_in),
        proj_f=tn("proj_f", (d_in, d_in)),
        proj_v=T.Mlp2Params(w1, zeros("proj_v1.b", d_out), w2, zeros("proj_v2.b", d_out)),
        d_in=d_in, d_out=d_out)


def _partition(s_flat: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Argmax cosine similarity of each pixel over all seeds; ties take the
    lowest seed index. The comparison itself is non-differentiable and is
    treated as constant by every backward pass here."""
    sim, _ = T.cosine_sim(s_flat, seeds)
    return np.argmax(sim, axis=-1).astype(np.int32)


def _pool_means(vectors: np.ndarray, owner: np.ndarray, seeds: np.ndarray):
    """Per-cluster mean of member vectors; empty clusters keep their seed.

    vectors/seeds are (B, n, c) and (B, m, c); owner is (B, n). Returns
    (pooled, backward) where backward(d_pooled) -> (d_vectors, d_seeds)."""
    onehot = owner[..., None] == np.arange(seeds.shape[1])          # (B, n, m) bool
    # int64 counts promote float32 means to float64 (a known defect)
    counts = onehot.sum(axis=1)
    empty = counts == 0
    denom = np.maximum(counts, 1)[..., None]
    pooled = np.where(empty[..., None], seeds, np.swapaxes(onehot, 1, 2) @ vectors / denom)

    def backward(d_pooled: np.ndarray):
        d_members = np.where(empty[..., None], 0.0, d_pooled / denom)
        d_seeds = np.where(empty[..., None], d_pooled, 0.0)
        return onehot @ d_members, d_seeds

    return pooled, backward


def icp_forward(x: np.ndarray, p: IcpParams):
    """Pool (B, H, W, d_in) to (B, H/2, W/2, d_out).

    Returns (out, PoolAssignment, backward); backward(d_out) -> dx, which
    keeps x's dtype. The partition is constant in backward; gradients flow
    through the cluster means and both projections.
    """
    bsz, hh, ww, d = T.map_shape(x, "pool")
    if d != p.d_in:
        raise DimensionError(f"pool expects width {p.d_in}, got {d}")
    if hh % 2 or ww % 2:
        raise ConfigError(f"pool requires even extents, got ({hh},{ww})")
    h2, w2 = hh // 2, ww // 2
    m = h2 * w2
    n = hh * ww

    xn, back_norm = T.layer_norm(x, p.norm_g, p.norm_b)
    s_map, back_projf = T.linear(xn, p.proj_f)               # (B,H,W,d_s)
    seeds_map, back_seed_pool = T.adaptive_avg_pool2d(s_map, h2, w2)
    seeds = seeds_map.reshape(bsz, m, p.d_in)
    s_flat = s_map.reshape(bsz, n, p.d_in)
    owner = _partition(s_flat, seeds)
    pooled, back_means = _pool_means(s_flat, owner, seeds)
    out_flat, back_projv = T.mlp2(pooled, p.proj_v)
    out = out_flat.reshape(bsz, h2, w2, p.d_out)
    assign = PoolAssignment(owner=owner, m=m, grid_hw=(h2, w2))

    def backward(d_out: np.ndarray) -> np.ndarray:
        d_pooled = back_projv(d_out.reshape(bsz, m, p.d_out))
        d_s_flat, d_seeds = back_means(d_pooled)
        d_s_map = d_s_flat.reshape(s_map.shape) + back_seed_pool(d_seeds.reshape(seeds_map.shape))
        # _pool_means promotes float32 to float64; keep that out of the stage before
        return back_norm(back_projf(d_s_map)).astype(x.dtype, copy=False)

    return out, assign, backward


# ---------------------------------------------------------------------------
# resolution-preserving transition (small inputs)
# ---------------------------------------------------------------------------

@dataclass
class LinearTransitionParams:
    """Channel-only stage transition: norm then a per-pixel projection.

    Used as the last transition, where the map is already too small to
    halve again; records an identity partition so receptive-field
    composition stays uniform.
    """

    norm_g: T.Parameter
    norm_b: T.Parameter
    w: T.Parameter
    b: T.Parameter
    d_in: int
    d_out: int

    def params(self) -> list[T.Parameter]:
        return [self.norm_g, self.norm_b, self.w, self.b]


def make_linear_transition(rng: np.random.Generator, d_in: int, d_out: int,
                           dtype=T.F32, name: str = "trans") -> LinearTransitionParams:
    return LinearTransitionParams(
        norm_g=T.Parameter(f"{name}.norm_g", np.ones(d_in, dtype=dtype)),
        norm_b=T.Parameter(f"{name}.norm_b", np.zeros(d_in, dtype=dtype)),
        w=T.Parameter(f"{name}.w", T.trunc_normal(rng, (d_out, d_in), 0.02, dtype)),
        b=T.Parameter(f"{name}.b", np.zeros(d_out, dtype=dtype)),
        d_in=d_in, d_out=d_out)


def linear_transition_forward(x: np.ndarray, p: LinearTransitionParams):
    bsz, hh, ww, d = T.map_shape(x, "transition")
    if d != p.d_in:
        raise DimensionError(f"transition expects width {p.d_in}, got {d}")
    xn, back_norm = T.layer_norm(x, p.norm_g, p.norm_b)
    out, back_lin = T.linear(xn, p.w, p.b)
    n = hh * ww
    owner = np.tile(np.arange(n, dtype=np.int32), (bsz, 1))
    assign = PoolAssignment(owner=owner, m=n, grid_hw=(hh, ww))

    def backward(d_out: np.ndarray) -> np.ndarray:
        return back_norm(back_lin(d_out))

    return out, assign, backward
