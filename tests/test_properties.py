"""Properties every op of the catalogue keeps: gradients that finite differences confirm,
dtype, and batch independence (a batch equals its images one at a time)."""

import dataclasses

import numpy as np
import pytest

from cluenet import gfc, icp
from fd import grad_check, wave
from ops import F32, F64, OPS, Draw, build, output, params


# ---------------------------------------------------------------------------
# gradients: every backward against central differences
# ---------------------------------------------------------------------------

# Operands whose gradients a backward returns, in its order, where not the first alone ("assign.weights": a field).
GRADIENTS = {"cosine_sim": ("a", "b"), "gated_fuse": ("c_v", "c_agg"), "dispatch": ("p", "assign.weights", "centers_h"),
             "soft_aggregate_cosine": ("c_s", "p_s", "p_v"), "soft_aggregate_dot": ("c_s", "p_s", "p_v"),
             "compute_assignment": ("p_s", "q", "alpha", "beta")}
TOL = {"patch_embed": 1e-6, "gated_fuse": 1e-6}     # they measure 5.6e-7 and 5.3e-7 at this draw


# Not linear_f32_weight, whose float32 weight grad_check refuses, nor the width-8 blocks:
# about 1,550 coordinates and 1.3 s of FD each; test_gfc.py checks width-4 blocks.
@pytest.mark.parametrize("op", [op for op in OPS if op != "linear_f32_weight" and not op.startswith("gfc_block")])
def test_backward_matches_finite_differences(op):
    fn, operands = build(op, np.random.default_rng(0), F64)
    operands = {k: np.asarray(v, F64) if isinstance(v, float) else v for k, v in operands.items()}  # alpha, beta
    paths = [name.partition(".")[::2] for name in GRADIENTS.get(op, [next(iter(operands))])]

    def run(*inputs):
        moved = dict(operands)
        for (key, field), a in zip(paths, inputs):
            moved[key] = dataclasses.replace(moved[key], **{field: a}) if field else a
        res = fn(**moved)
        return output(res), res[-1]

    inputs = [getattr(operands[key], field) if field else operands[key] for key, field in paths]
    grad_check(run, inputs, wave(run(*inputs)[0].shape), params(operands), tol=TOL.get(op, 1e-7))


# ---------------------------------------------------------------------------
# dtype: float32 in gives float32 out and float32 gradients
# ---------------------------------------------------------------------------

# Only the forward promotes now: _pool_means divides float32 sums by int64
# counts, so the pooled means and the output are float64, while dx is cast
# back to x's dtype (test_icp_input_gradient_keeps_x_dtype). The one-line
# forward fix (counts in the vectors' dtype) moves the network's
# float32-vs-float64 stage errors past the benchmark output check's
# F64_RTOL bound, mostly through float32 accumulation in linear, so it
# waits for that bound to be re-derived.
ICP_PROMOTES = pytest.mark.xfail(strict=True, reason="_pool_means promotes the output to float64")


@pytest.mark.parametrize("op", [pytest.param(op, marks=ICP_PROMOTES) if op == "icp" else op
                                for op in OPS if op != "linear_f32_weight"])   # in float32, linear without a bias
def test_float32_is_kept(op):
    """Of the backward's results, the arrays are checked: compute_assignment's
    scalar alpha and beta gradients are floats."""
    rng = np.random.default_rng(0)
    fn, operands = build(op, rng, F32)
    res = fn(**operands)
    out = output(res)
    grads = res[-1](Draw(rng, F32)(*out.shape))
    assert out.dtype == F32
    for g in grads if isinstance(grads, tuple) else [grads]:
        assert not isinstance(g, np.ndarray) or g.dtype == F32
    for q in params(operands):
        assert q.grad is not None and q.grad.dtype == F32, q.name


@pytest.mark.parametrize("dtype", [F32, F64])
def test_icp_input_gradient_keeps_x_dtype(dtype):
    """The float64 d_out of the promoted forward must not widen stage 1's backward."""
    rng = np.random.default_rng(3)
    p = icp.make_icp_params(rng, 4, 6, dtype=dtype)
    x = Draw(rng, dtype)(2, 4, 4, 4)
    out, _, back = icp.icp_forward(x, p)
    dx = back(rng.normal(size=out.shape))
    assert dx.dtype == dtype


# ---------------------------------------------------------------------------
# batch independence: an image's results, hard choices included, are its own
# ---------------------------------------------------------------------------

def image(v, i, bsz):
    """Operand ``v`` of image ``i`` alone: an array whose leading axis is the batch's, or
    a HardAssignment's cols and weights. Parameters, sizes and unbatched arrays stay."""
    if isinstance(v, gfc.HardAssignment):
        return dataclasses.replace(v, cols=v.cols[i:i + 1], weights=v.weights[i:i + 1])
    return v[i:i + 1] if isinstance(v, np.ndarray) and v.shape[:1] == (bsz,) else v


def arrays(res, name="res"):
    """(name, array) of every ndarray in ``res``: tuple items and dataclass fields, in order."""
    if isinstance(res, np.ndarray):
        return [(name, res)]
    if isinstance(res, tuple):
        return [a for k, r in enumerate(res) for a in arrays(r, f"{name}[{k}]")]
    if dataclasses.is_dataclass(res):
        return [a for f in dataclasses.fields(res) for a in arrays(getattr(res, f.name), f"{name}.{f.name}")]
    return []


@pytest.mark.parametrize("op", OPS)
def test_a_batch_equals_its_images_one_at_a_time(op):
    """The forward on a batch gives, per image, what it gives on that image alone: the
    same hard choices (cols, owner) and floats within 1e-12. A backward that leaks
    across images fails the finite-difference property."""
    fn, operands = build(op, np.random.default_rng(0), F64)
    bsz = len(next(iter(operands.values())))
    batch = arrays(fn(**operands))
    images = [arrays(fn(**{k: image(v, i, bsz) for k, v in operands.items()})) for i in range(bsz)]
    assert batch, f"{op} returns no array"
    for (name, whole), *parts in zip(batch, *images, strict=True):
        one_at_a_time = np.concatenate([a for _, a in parts])
        if whole.dtype.kind in "iu":
            np.testing.assert_array_equal(whole, one_at_a_time, err_msg=name)
        else:
            np.testing.assert_allclose(whole, one_at_a_time, rtol=0, atol=1e-12, err_msg=name)
