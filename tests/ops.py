"""The op catalogue: one row per public op and variant, which the op-wide
properties (the backward matches finite differences, float32 kept, a
backward runs once, typed errors on operands of any rank, a batch equals
its images one at a time, a map op needs the batch axis, what a backward
keeps alive) all run over.

A row is ``Op(fn, operands)``: ``operands(draw)`` returns fresh keyword
operands for ``fn``, drawn in ``draw.dtype``. A new public op adds one row;
``test_errors.py:test_every_public_op_has_a_catalogue_row`` fails until it
has one.

The finite-difference property moves every Parameter and the operands
whose gradients the backward returns: the first, unless
``test_properties.py:GRADIENTS`` names them (cosine_sim, soft_aggregate,
gated_fuse, compute_assignment, dispatch). A row whose backward returns
more fails grad_check until it is named there.

The batch property slices the operands that lead with the first operand's
size (and a HardAssignment's cols and weights); an unbatched array, such
as patch_embed's grid, must lead with another size.
"""

from typing import Callable, NamedTuple

import numpy as np

from cluenet import gfc, icp, pfe
from cluenet import tensor as T

F32 = np.float32
F64 = np.float64


def param(name, value, dtype=F64):
    """A Parameter holding ``value`` as a ``dtype`` array."""
    return T.Parameter(name, np.asarray(value, dtype=dtype))


class Draw:
    """Standard-normal operands from ``rng``: ``draw(*shape)`` is an array and
    ``draw.p(name, *shape)`` a Parameter, both in ``dtype`` unless told."""

    def __init__(self, rng, dtype):
        self.rng, self.dtype = rng, dtype

    def __call__(self, *shape, dtype=None):
        return self.rng.normal(size=shape).astype(dtype or self.dtype)

    def p(self, name, *shape, dtype=None):
        return param(name, self(*shape, dtype=dtype), dtype or self.dtype)


def mlp(d, d_in, d_hidden, d_out):
    return T.Mlp2Params(d.p("w1", d_hidden, d_in), d.p("b1", d_hidden), d.p("w2", d_out, d_hidden), d.p("b2", d_out))


def block(rng, dtype, owns=True, flags=gfc.BlockFlags()):
    """A width-8, 2-head block whose residual branches are not zero, so it is
    not the identity."""
    p = gfc.make_gfc_params(rng, 8, 8, 2, (2, 2), flags, owns, dtype=dtype)
    for q in p.params():
        if q.value.ndim >= 2:
            q.value = T.trunc_normal(rng, q.shape, 0.2, dtype)
    return p


class Op(NamedTuple):
    fn: Callable
    operands: Callable[[Draw], dict]


def block_op(owns, flags=gfc.BlockFlags()):
    """A block on a (2, 4, 4, 8) map; a consumer reuses an owner's assignment of another map."""
    def operands(d):
        shared = None if owns else gfc.gfc_block_forward(d(2, 4, 4, 8), block(d.rng, d.dtype))[1].assignment
        return {"x": d(2, 4, 4, 8), "p": block(d.rng, d.dtype, owns, flags), "shared": shared}
    return Op(gfc.gfc_block_forward, operands)


OPS = {   # id: Op; an op's first row is the op itself, later rows are its variants
    "linear": Op(T.linear, lambda d: {"x": d(2, 3, 4), "w": d.p("w", 5, 4), "bias": d.p("b", 5)}),
    "linear_f32_weight": Op(T.linear, lambda d: {"x": d(2, 3, 4), "w": d.p("w", 5, 4, dtype=F32)}),
    "gelu": Op(T.gelu, lambda d: {"x": d(2, 3, 4)}),
    "sigmoid": Op(T.sigmoid, lambda d: {"x": d(2, 3, 4)}),
    "softmax": Op(T.softmax, lambda d: {"x": d(2, 3, 4)}),
    "cosine_sim": Op(T.cosine_sim, lambda d: {"a": d(2, 3, 4), "b": d(2, 5, 4)}),
    "layer_norm": Op(T.layer_norm, lambda d: {"x": d(2, 3, 4), "gamma": d.p("g", 4), "beta": d.p("b", 4)}),
    "dwconv2d": Op(T.dwconv2d, lambda d: {"x": d(2, 4, 4, 3), "kernel": d.p("k", 3, 3, 3)}),
    "adaptive_avg_pool2d": Op(T.adaptive_avg_pool2d, lambda d: {"x": d(2, 5, 7, 3), "h": 2, "w": 3}),  # uneven
    "patch_embed": Op(pfe.patch_embed, lambda d: {"img": d(2, 8, 8, 3), "grid": pfe.make_grid(8, 8, d.dtype),
                                                  "weight": d.p("w", 6, 4, 4, 5), "bias": d.p("b", 6)}),
    "mlp2": Op(T.mlp2, lambda d: {"x": d(2, 3, 4), "p": mlp(d, 4, 6, 5)}),
    "ffn": Op(T.ffn, lambda d: {"x": d(2, 4, 4, 3), "w1": d.p("w1", 6, 3), "b1": d.p("b1", 6),
                                "dw": d.p("dw", 3, 3, 6), "w2": d.p("w2", 3, 6), "b2": d.p("b2", 3)}),
    "pos_residual": Op(pfe.pos_residual, lambda d: {"x": d(2, 4, 4, 3), "dw": d.p("k", 3, 3, 3)}),
    "init_centers": Op(gfc.init_centers, lambda d: {"p_map": d(2, 4, 4, 3), "h": 2, "w": 2}),
    "soft_aggregate_cosine": Op(gfc.soft_aggregate, lambda d: {
        "c_s": d(2, 2, 4, 3), "p_s": d(2, 2, 9, 3), "p_v": d(2, 2, 9, 3), "tau_raw": param("tau_raw", 0.5, d.dtype)}),
    "soft_aggregate_dot": Op(gfc.soft_aggregate, lambda d: {
        "c_s": d(2, 2, 4, 3), "p_s": d(2, 2, 9, 3), "p_v": d(2, 2, 9, 3), "tau_raw": None}),
    "gated_fuse": Op(gfc.gated_fuse, lambda d: {"c_v": d(2, 4, 3), "c_agg": d(2, 4, 3), "gate": mlp(d, 6, 3, 1)}),
    "project_queries": Op(gfc.project_queries, lambda d: {"centers": d(2, 4, 6), "w_q": d.p("w_q", 6, 6), "heads": 2}),
    "compute_assignment": Op(gfc.compute_assignment, lambda d: {"p_s": d(2, 2, 9, 3), "q": d(2, 2, 4, 3),
                                                                "alpha": 1.5, "beta": -0.2}),
    "dispatch": Op(gfc.dispatch, lambda d: {   # B=2, 2 heads of width 3 over m=4 centers and n=5 pixels, d=6
        "p": d(2, 5, 6), "assign": gfc.HardAssignment(d.rng.integers(0, 4, (2, 2, 5)).astype(np.int32), d(2, 2, 5), 4),
        "centers_h": d(2, 2, 4, 3), "fc_out": d.p("fc_out", 6, 6), "b_out": d.p("b_out", 6)}),
    **{f"gfc_block_{role}{off}": block_op(role == "owner", flags) for off, flags in (
        ("", gfc.BlockFlags()), ("_fa_off", gfc.BlockFlags(fa=False)), ("_tcos_off", gfc.BlockFlags(tcos=False)))
       for role in ("owner", "consumer")},
    "linear_transition": Op(icp.linear_transition_forward,
                            lambda d: {"x": d(2, 4, 4, 4), "p": icp.make_linear_transition(d.rng, 4, 6, d.dtype)}),
    "icp": Op(icp.icp_forward, lambda d: {"x": d(2, 4, 4, 4), "p": icp.make_icp_params(d.rng, 4, 6, d.dtype)}),
}


def build(op, rng, dtype):
    """(fn, fresh operands) of row ``op``."""
    fn, operands = OPS[op]
    return fn, operands(Draw(rng, dtype))


def output(res):
    """The array of an op's result ``res`` whose gradient its backward takes:
    the first output, or a HardAssignment's weights."""
    return res[0].weights if isinstance(res[0], gfc.HardAssignment) else res[0]


def params(operands):
    """The Parameters among ``operands``, each ParamSet's in its order."""
    return [q for v in operands.values() if isinstance(v, (T.Parameter, T.ParamSet))
            for q in (v.params() if isinstance(v, T.ParamSet) else [v])]
