"""Cluster pooling, its gradient path, and the broken-wiring oracle."""

import numpy as np
import pytest

from cluenet import icp
from cluenet import tensor as T
from cluenet.errors import ConfigError, DimensionError
from fd import grad_check
from ops import F64


def toy_params(rng, d_in=4, d_out=4, scale=10.0):
    p = icp.make_icp_params(rng, d_in, d_out, dtype=F64)
    # inflate projections so similarity rows clear the cosine eps floor
    for w in (p.proj_f, p.proj_v.w1, p.proj_v.w2):
        w.value = w.value * scale
    return p


def identity_params(d):
    """proj_f = I, so the similarity space is the normalized feature space;
    expected outputs are member means pushed through ``project``."""
    p = icp.make_icp_params(np.random.default_rng(0), d, d, dtype=F64)
    p.proj_f.value = np.eye(d)
    return p


def project(p, pooled):
    """What icp_forward's output perceptron makes of pooled vectors."""
    return T.mlp2(pooled, p.proj_v)[0]


def cluster_members(assign):
    """Pixel index lists per cluster of image 0; together they partition [0, n)."""
    owner = assign.owner[0]
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(assign.m + 1))
    return [order[bounds[c]:bounds[c + 1]] for c in range(assign.m)]


def fec_pool_oracle(x, p):
    """The pathological wiring icp_forward fixes: partition from proj_f,
    content from elsewhere.

    Identical partition to icp_forward, but pooled means are taken over the
    normalized input features (and empty clusters over feature-space seeds),
    so proj_f contributes only argmax indices and receives zero gradient.
    """
    bsz, hh, ww, d = x.shape
    h2, w2 = hh // 2, ww // 2
    m = h2 * w2
    n = hh * ww

    xn, back_norm = T.layer_norm(x, p.norm_g, p.norm_b)
    s_map, _ = T.linear(xn, p.proj_f)                        # index path only
    seeds_map, _ = T.adaptive_avg_pool2d(s_map, h2, w2)
    owner = icp._partition(s_map.reshape(bsz, n, d), seeds_map.reshape(bsz, m, d))

    raw_seeds_map, back_raw_pool = T.adaptive_avg_pool2d(xn, h2, w2)
    pooled, back_means = icp._pool_means(xn.reshape(bsz, n, d), owner,
                                         raw_seeds_map.reshape(bsz, m, d))
    out_flat, back_projv = T.mlp2(pooled, p.proj_v)
    out = out_flat.reshape(bsz, h2, w2, p.d_out)

    def backward(d_out):
        d_pooled = back_projv(d_out.reshape(bsz, m, p.d_out))
        d_x_flat, d_raw_seeds = back_means(d_pooled)
        d_xn = d_x_flat.reshape(xn.shape) + back_raw_pool(d_raw_seeds.reshape(raw_seeds_map.shape))
        return back_norm(d_xn)

    return out, icp.PoolAssignment(owner=owner, m=m, grid_hw=(h2, w2)), backward


def pool_means_oracle(vectors, owner, seeds):
    """icp._pool_means by np.add.at sums, np.bincount counts and a
    take_along_axis gather in backward."""
    bsz, n, c = vectors.shape
    m = seeds.shape[1]
    rows = (owner + (np.arange(bsz) * m)[:, None]).ravel()
    sums = np.zeros((bsz * m, c), dtype=vectors.dtype)
    np.add.at(sums, rows, vectors.reshape(-1, c))
    counts = np.bincount(rows, minlength=bsz * m).reshape(bsz, m)
    empty = counts == 0
    denom = np.maximum(counts, 1)[..., None]
    pooled = np.where(empty[..., None], seeds, sums.reshape(bsz, m, c) / denom)

    def backward(d_pooled):
        d_members = np.where(empty[..., None], 0.0, d_pooled / denom)
        d_vectors = np.take_along_axis(d_members, owner[..., None].astype(np.intp), axis=1)
        return d_vectors, np.where(empty[..., None], d_pooled, 0.0)

    return pooled, backward


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_identical_pixels_constant_output():
    p = toy_params(np.random.default_rng(1))
    x = np.tile(np.array([1.0, -0.5, 2.0, 0.25]), (1, 4, 4, 1))
    out, assign, _ = icp.icp_forward(x, p)
    assert out.shape == (1, 2, 2, 4)
    np.testing.assert_allclose(out, np.broadcast_to(out[0, 0, 0], out.shape), atol=1e-12)
    assert assign.m == 4


def test_single_cluster_pools_global_mean():
    # 2x2 -> 1x1 with identity projections: output = mean of similarity rows,
    # which equals the mean of the normalized inputs.
    d = 3
    p = identity_params(d)
    x = np.random.default_rng(2).normal(size=(1, 2, 2, d))
    out, assign, _ = icp.icp_forward(x, p)
    xn, _ = T.layer_norm(x, p.norm_g, p.norm_b)
    np.testing.assert_allclose(out.reshape(d), project(p, xn.reshape(4, d).mean(axis=0)),
                               rtol=1e-10)
    np.testing.assert_array_equal(assign.owner[0], np.zeros(4, dtype=np.int32))


def test_quadrant_codes_recover_quadrant_partition():
    # four well-separated quadrant codes: each pixel must join its quadrant seed
    d = 4
    p = identity_params(d)
    codes = 25.0 * np.eye(4)
    x = np.zeros((4, 4, d))
    x[:2, :2], x[:2, 2:], x[2:, :2], x[2:, 2:] = codes[0], codes[1], codes[2], codes[3]
    x += np.random.default_rng(3).normal(scale=0.01, size=x.shape)
    out, assign, _ = icp.icp_forward(x[None], p)
    expected_owner = np.array([0, 0, 1, 1,
                               0, 0, 1, 1,
                               2, 2, 3, 3,
                               2, 2, 3, 3], dtype=np.int32)
    np.testing.assert_array_equal(assign.owner[0], expected_owner)
    # pooled vectors equal quadrant means of the normalized map
    xn, _ = T.layer_norm(x, p.norm_g, p.norm_b)
    sn = xn  # proj_f identity
    for c, (r0, c0) in enumerate([(0, 0), (0, 2), (2, 0), (2, 2)]):
        member_mean = sn[r0:r0 + 2, c0:c0 + 2].reshape(4, d).mean(axis=0)
        np.testing.assert_allclose(out.reshape(4, d)[c], project(p, member_mean), rtol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_pool_means_match_scatter_oracle(dtype):
    rng = np.random.default_rng(31)
    bsz, n, m, c = 2, 30, 6, 4
    vectors = rng.normal(size=(bsz, n, c)).astype(dtype)
    seeds = rng.normal(size=(bsz, m, c)).astype(dtype)
    owner = rng.integers(0, m, size=(bsz, n)).astype(np.int32)
    owner[owner == 3] = 2                                   # cluster 3 is empty
    pooled, back = icp._pool_means(vectors, owner, seeds)
    want, back_want = pool_means_oracle(vectors, owner, seeds)

    # int64 counts promote float32 means to float64: the strict xfail
    # test_float32_is_kept[icp] in test_properties.py
    assert pooled.dtype == F64
    # each mean divides a sum of at most n members accumulated in ``dtype``
    atol = 2 * n * np.finfo(dtype).eps * np.abs(vectors).max()
    np.testing.assert_allclose(pooled, want, rtol=0, atol=atol)
    np.testing.assert_array_equal(pooled[:, 3], seeds[:, 3])
    d_pooled = rng.normal(size=(bsz, m, c))
    grads = back(d_pooled)
    for got, exp in zip(grads, back_want(d_pooled)):
        assert got.dtype == exp.dtype
        np.testing.assert_array_equal(got, exp)
    # each pixel's row of the one-hot matrix holds one 1, so the gather in
    # backward has the bytes of the one-hot matmul
    onehot = owner[..., None] == np.arange(m)
    denom = np.maximum(onehot.sum(axis=1), 1)[..., None]
    d_members = np.where(onehot.any(axis=1)[..., None], d_pooled / denom, 0.0)
    got, want = grads[0], onehot @ d_members
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_odd_extent_rejected():
    p = toy_params(np.random.default_rng(4))
    with pytest.raises(ConfigError):
        icp.icp_forward(np.zeros((1, 3, 4, 4)), p)


@pytest.mark.parametrize("forward, make, where", [
    (icp.icp_forward, icp.make_icp_params, "pool"),
    (icp.linear_transition_forward, icp.make_linear_transition, "transition")])
def test_input_width_mismatch_rejected(forward, make, where):
    p = make(np.random.default_rng(18), 4, 6, dtype=F64)
    with pytest.raises(DimensionError, match=rf"{where}: expected a \(B, H, W, C\) map, C = 4, got \(1, 4, 4, 3\)"):
        forward(np.zeros((1, 4, 4, 3)), p)


def test_partition_is_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = toy_params(rng)
        x = rng.normal(size=(1, 6, 4, 4))
        _, assign, _ = icp.icp_forward(x, p)
        members = cluster_members(assign)
        assert sum(len(mem) for mem in members) == 24
        np.testing.assert_array_equal(np.sort(np.concatenate(members)), np.arange(24))
        for c, mem in enumerate(members):
            np.testing.assert_array_equal(assign.owner[0][mem], c)


def test_proj_v_maps_to_output_width():
    rng = np.random.default_rng(7)
    p = icp.make_icp_params(rng, 4, 6, dtype=F64)
    out, _, _ = icp.icp_forward(rng.normal(size=(1, 4, 4, 4)), p)
    assert out.shape == (1, 2, 2, 6)


def test_well_separated_windows_reduce_to_avg_pool():
    # pixels constant within each 2x2 window, windows far apart: clustering
    # coincides with 2x2 average pooling followed by proj_v.
    d = 4
    p = identity_params(d)
    rng = np.random.default_rng(8)
    window_codes = 50.0 * rng.normal(size=(2, 2, d))
    x = np.repeat(np.repeat(window_codes, 2, axis=0), 2, axis=1)[None]
    out, assign, _ = icp.icp_forward(x, p)
    xn, _ = T.layer_norm(x, p.norm_g, p.norm_b)
    pooled_direct, _ = T.adaptive_avg_pool2d(xn, 2, 2)
    np.testing.assert_allclose(out, project(p, pooled_direct), rtol=1e-10)


# ---------------------------------------------------------------------------
# gradients: the module's reason to exist
# ---------------------------------------------------------------------------

def test_fec_grad_matches_fd_excluding_projf():
    rng = np.random.default_rng(11)
    p = toy_params(rng)
    plist = [q for q in p.params() if q is not p.proj_f]
    w = np.random.default_rng(12).normal(size=(1, 2, 2, 4))
    grad_check(lambda x: fec_pool_oracle(x, p), [rng.normal(size=(1, 4, 4, 4))], w,
               params=plist, tol=1e-4)


def test_projf_gradient_alive_vs_dead():
    rng = np.random.default_rng(13)
    for trial in range(10):
        p = toy_params(rng)
        x = rng.normal(size=(1, 4, 4, 4))
        w = rng.normal(size=(1, 2, 2, 4))

        out, _, back = icp.icp_forward(x, p)
        back(w)
        assert np.linalg.norm(p.proj_f.grad) > 1e-8

        for q in p.params():
            q.grad = None
        out2, _, back2 = fec_pool_oracle(x, p)
        back2(w)
        assert p.proj_f.grad is None


def test_fec_matches_icp_on_identity_wiring():
    # with proj_f = identity the similarity space IS the feature space, so
    # both wirings pool the same vectors whenever the partitions coincide.
    d = 4
    p = identity_params(d)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 4, 4, d))
    out_icp, a1, _ = icp.icp_forward(x, p)
    out_fec, a2, _ = fec_pool_oracle(x, p)
    np.testing.assert_array_equal(a1.owner, a2.owner)
    np.testing.assert_allclose(out_icp, out_fec, rtol=1e-12)


# ---------------------------------------------------------------------------
# linear transition
# ---------------------------------------------------------------------------

def test_linear_transition_shapes_and_partition():
    rng = np.random.default_rng(15)
    p = icp.make_linear_transition(rng, 4, 6, dtype=F64)
    x = rng.normal(size=(1, 4, 4, 4))
    out, assign, _ = icp.linear_transition_forward(x, p)
    assert out.shape == (1, 4, 4, 6)
    np.testing.assert_array_equal(assign.owner[0], np.arange(16))
    assert assign.m == 16 and assign.grid_hw == (4, 4)
