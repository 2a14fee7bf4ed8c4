"""Coordinate-augmented patch embedding and the depth-wise positional residual.

The stem concatenates a fixed normalized coordinate grid to the RGB image,
cuts the 5-channel result into non-overlapping 4x4 patches, and projects
each patch to the stage width. A 3x3 depth-wise convolution added back onto
the embedded map supplies position information downstream; the same residual
reappears inside every block FFN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError

PATCH = 4
GRID_CHANNELS = 2
IMG_CHANNELS = 3


def make_grid(h: int, w: int, dtype=T.F32) -> np.ndarray:
    """Fixed coordinate grid, shape (h, w, 2).

    grid[i, j] = [i/w - 0.5, j/h - 0.5] with integer indices i in [0, h)
    and j in [0, w). Note the row index is divided by the width and vice
    versa; this matches the published formula verbatim, and the two are
    interchangeable on the square inputs used here.
    """
    if h < 1 or w < 1:
        raise DimensionError(f"make_grid: extents must be positive, got ({h},{w})")
    grid = np.empty((h, w, 2), dtype=np.float64)
    grid[..., 0] = (np.arange(h, dtype=np.float64) / w - 0.5)[:, None]
    grid[..., 1] = (np.arange(w, dtype=np.float64) / h - 0.5)[None, :]
    return grid.astype(dtype)


@dataclass
class PatchEmbedParams:
    """Stem parameters: 4x4x5 patch projection plus the positional kernel."""

    weight: T.Parameter  # (d, 4, 4, 5)
    bias: T.Parameter    # (d,)
    dw: T.Parameter      # (3, 3, d)

    def params(self) -> list[T.Parameter]:
        return [self.weight, self.bias, self.dw]


def patch_embed(img: np.ndarray, grid: np.ndarray, weight: T.Parameter,
                bias: T.Parameter):
    """Embed (B, H, W, 3) + grid into (B, H/4, W/4, d).

    The grid is a fixed input: it receives no gradient. ``weight`` rows are
    laid out (patch_row, patch_col, channel) in C order, so flattening the
    window and the kernel the same way reduces the convolution to one matmul.
    """
    b, h, w, c = T.map_shape(img, "patch_embed")
    if c != IMG_CHANNELS:
        raise DimensionError(f"patch_embed: expected {IMG_CHANNELS} image channels, got {c}")
    if h % PATCH or w % PATCH:
        raise ConfigError(f"patch_embed: spatial extents ({h},{w}) not divisible by {PATCH}")
    if grid.shape != (h, w, GRID_CHANNELS):
        raise DimensionError(f"patch_embed: grid shape {grid.shape} != ({h},{w},{GRID_CHANNELS})")
    d = weight.value.shape[0]
    if weight.value.shape != (d, PATCH, PATCH, IMG_CHANNELS + GRID_CHANNELS):
        raise DimensionError(f"patch_embed: weight shape {weight.value.shape} invalid")

    g = np.broadcast_to(grid.astype(img.dtype, copy=False), (b, h, w, GRID_CHANNELS))
    xc = np.concatenate([img, g], axis=-1)
    hp, wp = h // PATCH, w // PATCH
    windows = xc.reshape(b, hp, PATCH, wp, PATCH, 5).transpose(0, 1, 3, 2, 4, 5)
    flat = np.ascontiguousarray(windows).reshape(-1, PATCH * PATCH * 5)  # one row per patch
    wmat = weight.value.reshape(d, -1)
    y = (flat @ wmat.T + bias.value).reshape(b, hp, wp, d)

    def backward(dy: np.ndarray) -> np.ndarray:
        dy2 = dy.reshape(-1, d)
        bias.add_grad(dy2.sum(axis=0))
        weight.add_grad((dy2.T @ flat).reshape(weight.value.shape))
        dflat = dy2 @ wmat
        dwin = dflat.reshape(b, hp, wp, PATCH, PATCH, 5).transpose(0, 1, 3, 2, 4, 5)
        dxc = np.ascontiguousarray(dwin).reshape(b, h, w, 5)
        return dxc[..., :IMG_CHANNELS]

    return y, backward


def pos_residual(x: np.ndarray, dw: T.Parameter):
    """x + dwconv2d(x, dw); shape preserved."""
    conv, back_conv = T.dwconv2d(x, dw)
    y = x + conv

    def backward(dy: np.ndarray) -> np.ndarray:
        return dy + back_conv(dy)

    return y, backward
