"""Coordinate grid, patch embedding, and positional residual."""

import numpy as np
import pytest

from cluenet import pfe
from cluenet import tensor as T
from cluenet.errors import ConfigError, DimensionError
from ops import F64, param


# ---------------------------------------------------------------------------
# make_grid
# ---------------------------------------------------------------------------

def test_grid_corner_values():
    g = pfe.make_grid(2, 2, dtype=F64)
    np.testing.assert_array_equal(g[0, 0], [-0.5, -0.5])
    np.testing.assert_array_equal(g[1, 1], [0.0, 0.0])


def test_grid_single_cell():
    g = pfe.make_grid(1, 1, dtype=F64)
    np.testing.assert_array_equal(g[0, 0], [-0.5, -0.5])


def test_grid_formula_pointwise():
    h, w = 5, 3
    g = pfe.make_grid(h, w, dtype=F64)
    for i in range(h):
        for j in range(w):
            np.testing.assert_allclose(g[i, j], [i / w - 0.5, j / h - 0.5], rtol=0, atol=0)


def test_grid_square_range():
    g = pfe.make_grid(8, 8, dtype=F64)
    assert g.min() == -0.5
    assert g.max() < 0.5


def test_grid_monotone_axes():
    g = pfe.make_grid(6, 6, dtype=F64)
    assert np.all(np.diff(g[:, 0, 0]) > 0)
    assert np.all(np.diff(g[0, :, 1]) > 0)


def test_grid_center_antisymmetry():
    # grid[i,j] + grid[H-1-i, W-1-j] is the constant [(H-1)/W - 1, (W-1)/H - 1].
    h, w = 4, 6
    g = pfe.make_grid(h, w, dtype=F64)
    const = np.array([(h - 1) / w - 1.0, (w - 1) / h - 1.0])
    for i in range(h):
        for j in range(w):
            np.testing.assert_allclose(g[i, j] + g[h - 1 - i, w - 1 - j], const, atol=1e-15)


def test_grid_bad_extent():
    with pytest.raises(DimensionError):
        pfe.make_grid(0, 3)


# ---------------------------------------------------------------------------
# patch_embed
# ---------------------------------------------------------------------------

def _embed_params(rng, d):
    return (param("w", rng.normal(size=(d, 4, 4, 5))), param("b", rng.normal(size=d)))


def test_embed_zero_weight_gives_bias():
    b = param("b", [1.5, -2.0])
    w = param("w", np.zeros((2, 4, 4, 5)))
    img = np.random.default_rng(0).normal(size=(1, 8, 8, 3))
    y, _ = pfe.patch_embed(img, pfe.make_grid(8, 8, dtype=F64), w, b)
    assert y.shape == (1, 2, 2, 2)
    np.testing.assert_array_equal(y[0], np.broadcast_to([1.5, -2.0], (2, 2, 2)))


def test_embed_single_window_dot_product():
    rng = np.random.default_rng(1)
    w, b = _embed_params(rng, 3)
    img = rng.normal(size=(4, 4, 3))
    grid = pfe.make_grid(4, 4, dtype=F64)
    y, _ = pfe.patch_embed(img[None], grid, w, b)
    window = np.concatenate([img, grid], axis=-1)  # (4,4,5), same layout as weight rows
    expected = np.tensordot(w.value, window, axes=([1, 2, 3], [0, 1, 2])) + b.value
    np.testing.assert_allclose(y[0, 0, 0], expected, rtol=1e-12)


def test_embed_identical_patches_identical_outputs_without_grid():
    # With a zero grid the embedding is translation invariant across windows.
    rng = np.random.default_rng(2)
    w, b = _embed_params(rng, 4)
    patch = rng.normal(size=(4, 4, 3))
    img = np.concatenate([patch, patch], axis=1)  # (4, 8, 3)
    y, _ = pfe.patch_embed(img[None], np.zeros((4, 8, 2)), w, b)
    np.testing.assert_allclose(y[0, 0, 0], y[0, 0, 1], rtol=1e-12)


def test_embed_output_extent():
    rng = np.random.default_rng(3)
    w, b = _embed_params(rng, 2)
    y, _ = pfe.patch_embed(rng.normal(size=(1, 12, 8, 3)), pfe.make_grid(12, 8, dtype=F64), w, b)
    assert y.shape == (1, 3, 2, 2)


def test_embed_indivisible_extent():
    rng = np.random.default_rng(5)
    w, b = _embed_params(rng, 2)
    with pytest.raises(ConfigError):
        pfe.patch_embed(np.zeros((1, 6, 8, 3)), np.zeros((6, 8, 2)), w, b)


BAD_EMBEDS = {   # id: (image shape, grid shape, weight shape, fixed part of the message)
    "4 image channels": ((1, 8, 8, 4), (8, 8, 2), (2, 4, 4, 5),
                         r"patch_embed: expected a \(B, H, W, C\) map, C = 3, got \(1, 8, 8, 4\)"),
    "grid of 3 channels": ((1, 8, 8, 3), (8, 8, 3), (2, 4, 4, 5), r"grid shape \(8, 8, 3\) != \(8,8,2\)"),
    "grid of another extent": ((1, 8, 8, 3), (8, 4, 2), (2, 4, 4, 5), r"grid shape \(8, 4, 2\)"),
    "weight without the grid channels": (
        (1, 8, 8, 3), (8, 8, 2), (2, 4, 4, 3), r"weight shape \(2, 4, 4, 3\) invalid"),
    "weight of 2x2 patches": ((1, 8, 8, 3), (8, 8, 2), (2, 2, 2, 5), r"weight shape \(2, 2, 2, 5\)"),
}


@pytest.mark.parametrize("bad", sorted(BAD_EMBEDS))
def test_embed_rejects_misshapen_operands(bad):
    img, grid, weight, message = BAD_EMBEDS[bad]
    with pytest.raises(DimensionError, match=message):
        pfe.patch_embed(np.zeros(img), np.zeros(grid), param("w", np.zeros(weight)),
                        param("b", np.zeros(weight[0])))


# ---------------------------------------------------------------------------
# pos_residual
# ---------------------------------------------------------------------------

def test_pos_residual_zero_kernel_is_identity():
    x = np.random.default_rng(7).normal(size=(1, 5, 5, 3))
    y, _ = pfe.pos_residual(x, param("dw", np.zeros((3, 3, 3))))
    np.testing.assert_array_equal(y, x)


def test_pos_residual_delta_kernel_doubles():
    x = np.random.default_rng(8).normal(size=(1, 4, 6, 2))
    ker = np.zeros((3, 3, 2))
    ker[1, 1] = 1.0
    y, _ = pfe.pos_residual(x, param("dw", ker))
    np.testing.assert_allclose(y, 2.0 * x, rtol=1e-15)


def test_pos_residual_decomposition():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 5, 4, 3))
    dw = param("dw", rng.normal(size=(3, 3, 3)))
    y, _ = pfe.pos_residual(x, dw)
    conv, _ = T.dwconv2d(x, dw)
    np.testing.assert_allclose(y - x, conv, rtol=1e-12)
