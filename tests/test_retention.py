"""Backward closures keep only the arrays their gradient formulas read.

Every array a closure holds stays alive until the backward has run, so
an input kept only for its ``.shape`` or a padded copy kept for
convenience adds to the peak memory of a training step. A backward runs
once and holds nothing after it has.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from closures import closure_arrays
from cluenet import gfc, icp
from cluenet import tensor as T
from cluenet.errors import ConfigError
from ops import F64, OPS, block, build, output, param


def shapes(arrays):
    return sorted(a.shape for a in arrays)


def test_layer_norm_holds_xh_and_s_only():
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
    _, back = T.layer_norm(x, param("g", np.ones(5)), param("b", np.zeros(5)))
    assert shapes(closure_arrays(back)) == [(2, 3, 4, 1), (2, 3, 4, 5)]
    assert not any(a is x for a in closure_arrays(back))


def test_gelu_holds_one_array_of_the_input_shape():
    x = np.random.default_rng(1).normal(size=(2, 3, 4))
    _, back = T.gelu(x)
    held = closure_arrays(back)
    assert shapes(held) == [x.shape] and held[0] is not x


@pytest.mark.parametrize("k", [1, 3, 5])
def test_dwconv_holds_its_input_and_nothing_padded(k):
    x = np.random.default_rng(2).normal(size=(2, 4, 6, 3))
    _, back = T.dwconv2d(x, param("k", np.ones((k, k, 3))))
    held = closure_arrays(back)
    assert len(held) == 1 and held[0] is x


@pytest.mark.parametrize(("xdtype", "pdtype"), [(F64, np.float32), (F64, F64), (np.float32, F64)],
                         ids=["float32", "float64", "float64-float32_input"])
@pytest.mark.parametrize("op", ["linear", "dwconv2d"])
def test_weight_gradient_input_is_held_in_the_parameters_dtype(op, xdtype, pdtype):
    """An input of another dtype than the weight or kernel is held as one
    copy in the parameter's dtype, narrower or wider, all its gradient
    reads; with matching dtypes the input itself is held. Sizes tell the
    input from the weight a linear holds."""
    x = np.random.default_rng(11).normal(size=(2, 4, 6, 5)).astype(xdtype)
    p = param("p", np.ones((3, 5) if op == "linear" else (3, 3, 5)), pdtype)
    _, back = getattr(T, op)(x, p)
    held = [a for a in closure_arrays(back) if a.size == x.size]
    assert len(held) == 1 and held[0].dtype == pdtype
    assert (held[0] is x) == (xdtype == pdtype)


# A (2, 7, 7, 1024) float64 dy meeting a float32 kernel, by tracemalloc: the
# backward peaks 2.20 MB above entry (0.80 MB of it the input gradient) when
# the kernel gradient's float32 taps are freed before dy is padded, plus
# about 10% slack. Holding both sets of taps at once peaks at 3.26 MB.
DWCONV_BACKWARD_PEAK = 2_400_000


def test_dwconv_backward_frees_the_kernel_taps_before_padding_dy():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 7, 7, 1024))
    _, back = T.dwconv2d(x, param("k", rng.normal(size=(3, 3, 1024)), np.float32))
    dy = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back(dy)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= DWCONV_BACKWARD_PEAK, f"dwconv2d backward peaked {peak / 1e6:.2f} MB above entry"


def test_pool_means_holds_no_onehot_mask():
    rng = np.random.default_rng(3)
    bsz, n, m, c = 2, 12, 3, 4
    owner = rng.integers(0, m, size=(bsz, n)).astype(np.int32)
    _, back = icp._pool_means(rng.normal(size=(bsz, n, c)), owner, rng.normal(size=(bsz, m, c)))
    held = closure_arrays(back)
    assert all(a.shape != (bsz, n, m) for a in held)
    assert any(a is owner for a in held)


# Distinct sizes, so a shape names one array: B, heads, pixels, centers, head width.
B, M, N, C, DH = 2, 3, 7, 4, 5


def test_dispatch_holds_no_gathered_centers():
    rng = np.random.default_rng(8)
    cols = rng.integers(0, C, size=(B, M, N)).astype(np.int32)
    assign = gfc.HardAssignment(cols, rng.uniform(0.2, 0.8, cols.shape), m=C)
    _, back = gfc.dispatch(rng.normal(size=(B, N, 6)), assign, rng.normal(size=(B, M, C, DH)),
                           param("fc", rng.normal(size=(6, M * DH))), param("b", np.zeros(6)))
    assert (B, M, N, DH) not in shapes(closure_arrays(back))


def test_assignment_holds_no_dense_scores():
    rng = np.random.default_rng(9)
    p_s, q = rng.normal(size=(B, M, N, DH)), rng.normal(size=(B, M, C, DH))
    _, back = gfc.compute_assignment(p_s, q, 1.2, -0.3)
    assert all(a.shape[-2:] != (N, C) for a in closure_arrays(back))


@pytest.mark.parametrize("tcos", [True, False])
def test_aggregate_holds_only_the_attention_it_returned(tcos):
    rng = np.random.default_rng(10)
    _, s_c, back = gfc.soft_aggregate(
        rng.normal(size=(B, M, C, DH)), rng.normal(size=(B, M, N, DH)),
        rng.normal(size=(B, M, N, DH)), param("tau_raw", 0.1) if tcos else None)
    maps = [a for a in closure_arrays(back) if a.shape[-2:] == (C, N)]
    assert len(maps) == 1 and maps[0] is s_c


@pytest.mark.parametrize(("xdtype", "pdtype"), [(F64, F64), (F64, np.float32), (np.float32, np.float32)],
                         ids=["float64", "float64_map-float32_params", "float32"])
def test_ffn_holds_its_hidden_map_alone(monkeypatch, xdtype, pdtype):
    """Of the hidden width, T.ffn's backward holds h = linear(x, w1, b1)
    itself, in its own dtype, and nothing rebuilt from it."""
    rng = np.random.default_rng(17)
    ps = [param(n, rng.normal(size=s), pdtype)
          for n, s in (("w1", (32, 8)), ("b1", (32,)), ("dw", (3, 3, 32)), ("w2", (8, 32)), ("b2", (8,)))]
    outs, linear = [], T.linear
    monkeypatch.setattr(T, "linear", lambda *a: outs.append(res := linear(*a)) or res)
    _, back = T.ffn(rng.normal(size=(2, 3, 3, 8)).astype(xdtype), *ps)
    [(h, _)] = outs
    hidden = [a for a in closure_arrays(back) if a.shape[-1] == 32]
    assert len(hidden) == 1 and hidden[0] is closure_arrays(lambda: h)[0]      # h's own buffer
    assert hidden[0].dtype == np.result_type(xdtype, pdtype)


@pytest.mark.parametrize(("xdtype", "pdtype"), [(F64, F64), (F64, np.float32), (np.float32, np.float32)],
                         ids=["float64", "float64_map-float32_params", "float32"])
@pytest.mark.parametrize("owns", [True, False], ids=["owner", "consumer"])
def test_block_holds_one_map_of_the_ffn_hidden_width(xdtype, pdtype, owns):
    """The FFN's backward holds h1 alone, in the activations' dtype: the
    conv input, GELU's slope and ffn_w2's input are rebuilt from it."""
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2, 3, 3, 8)).astype(xdtype)       # 18 rows, none 32 wide
    p, shared = block(rng, pdtype), None
    if not owns:
        shared = gfc.gfc_block_forward(x, p)[1].assignment
        p = block(rng, pdtype, owns=False)
    _, _, back = gfc.gfc_block_forward(x, p, shared)
    hidden = [a for a in closure_arrays(back) if a.shape[-1] == gfc.FFN_EXPANSION * 8]
    # h1 is held by its buffer, linear's (18, 32) GEMM output
    assert [(a.size, a.dtype) for a in hidden] == [(2 * 3 * 3 * 32, np.dtype(xdtype))]


@pytest.mark.parametrize("op", ["adaptive_avg_pool2d", "cosine_sim", "dispatch", "gelu", "gfc_block_consumer",
                                "gfc_block_owner", "icp", "init_centers", "layer_norm", "linear_f32_weight",
                                "linear_transition", "patch_embed", "sigmoid", "softmax"])
def test_backward_does_not_keep_the_input_alive(op):
    """Once the caller drops the input, only the outputs and the backward
    remain, and neither refers to it: these ops' backwards do not read
    their first operand, and linear's holds a float32 copy of a float64 x."""
    fn, operands = build(op, np.random.default_rng(7), F64)
    ref = weakref.ref(next(iter(operands.values())))
    *_, back = fn(**operands)
    del operands
    gc.collect()
    assert ref() is None and callable(back)


@pytest.mark.parametrize("op", OPS)
def test_a_spent_backward_holds_nothing_and_refuses_a_second_call(op):
    fn, operands = build(op, np.random.default_rng(14), F64)
    res = fn(**operands)
    dy, back = np.ones_like(output(res)), res[-1]
    assert closure_arrays(back)
    back(dy)
    assert closure_arrays(back) == []
    with pytest.raises(ConfigError, match="runs once"):
        back(dy)


def test_chain_runs_its_backwards_from_last_to_first_and_once():
    """As in y = f(g(x)), chain(back_g, back_f) runs back_f first. The chain
    is itself a spent backward after one call, also over parts that are not."""
    back = T.chain(lambda d: d + 1, lambda d: 2 * d)
    assert back(3) == 7
    with pytest.raises(ConfigError, match="runs once"):
        back(3)
