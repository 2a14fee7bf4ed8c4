"""Receptive-field tracing, cluster merging, and overlay rendering.

Every pooling step is a hard partition, so the exact image pixels feeding
any feature point are computable: composing the pools' ``owner`` arrays
from stage 0 up maps each stage-0 point to the one later point it feeds,
and each stage-0 point covers one patch x patch pixel block. A receptive
field is a 1-D ascending array of flat pixel indices ``r * W + c``. Cluster
assignments color those footprints, K-Means merges centers into fewer
groups for readable maps, and the renderer writes binary PPM images.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass, field

import numpy as np

from . import container as C
from .gfc import ClusterState, HardAssignment
from .icp import PoolAssignment
from .tensor import is_int
from .errors import ConfigError, DimensionError, FormatError


@dataclass
class TraceBundle:
    """Everything one single-image forward recorded.

    ``states[k]`` holds the ClusterStates of stage k (one entry when the
    stage shares its assignment, else one per block); ``pools[k]`` is the
    partition of the transition after stage k. All arrays are squeezed
    (no batch dimension).

    A trace is read-only once it has been queried: the first
    cluster_receptive_field call for a (stage, block) keeps each head's
    pixels grouped by cluster in ``_fields``, and later calls answer from
    it without reading the pools or columns again. Build a new trace
    (``dataclasses.replace`` starts with an empty ``_fields``) to change one.
    """

    image_hw: tuple[int, int]
    patch: int
    stage_hw: list[tuple[int, int]]
    states: list[list[ClusterState]]
    pools: list[PoolAssignment]
    _fields: dict = field(default_factory=dict, init=False, compare=False, repr=False)


# ---------------------------------------------------------------------------
# receptive fields
# ---------------------------------------------------------------------------

def _pixel_labels(trace: TraceBundle, stage: int) -> np.ndarray:
    """(H, W) image of the flat ``stage`` point each image pixel feeds.

    Composes ``pools[k].owner`` for k < stage over the stage-0 grid, then
    widens each stage-0 point to its patch x patch pixel block.
    """
    h0, w0 = trace.stage_hw[0]
    owner = np.arange(h0 * w0)
    for pool in trace.pools[:stage]:
        owner = pool.owner[owner]
    return owner.reshape(h0, w0).repeat(trace.patch, axis=0).repeat(trace.patch, axis=1)


def _ints_in(a: np.ndarray, shape: tuple, below=np.inf, least: int = 0) -> bool:
    """``a`` holds integers of ``shape`` in [least, below)."""
    return a.shape == shape and a.dtype.kind in "iu" and bool(np.all((a >= least) & (a < below)))


def _check_fit(trace: TraceBundle, stage: int, error=DimensionError) -> None:
    """Raise ``error`` naming ``stage`` unless the pools below it and its blocks
    fit their maps: pool k sends stage k's H*W points into stage k + 1's map,
    and a block's cols are (heads, H*W) of its stage, in [0, m)."""
    if len(trace.pools) < stage or len(trace.stage_hw) <= stage:
        raise error(f"trace stage {stage}: needs {stage} pools and {stage + 1} maps, got "
                    f"{len(trace.pools)} and {len(trace.stage_hw)}")
    n = [math.prod(hw) for hw in trace.stage_hw]
    parts = [(f"pools[{k}].owner", pool.owner, (n[k],), n[k + 1])
             for k, pool in enumerate(trace.pools[:stage])]
    parts += [(f"block {j} cols", st.assignment.cols, (st.heads, n[stage]), st.assignment.m)
              for j, st in enumerate(trace.states[stage])]
    for name, a, shape, below in parts:
        if not _ints_in(a, shape, below):
            raise error(f"trace stage {stage}: {name} is not {shape} integers in [0, {below})")


def _check_index(name: str, value, size: int) -> None:
    if not (is_int(value) and 0 <= value < size):
        raise ConfigError(f"{name} {value} out of range [0,{size})")


def cluster_receptive_field(trace: TraceBundle, stage: int, cluster: int,
                            head: int, block: int = 0) -> np.ndarray:
    """Image pixels feeding the points of ``stage`` assigned to ``cluster``.

    The patch blocks of the stage-0 points whose composed owner has column
    ``cluster`` under ``head``, as ascending flat indices (empty if none).
    The first query per (stage, block) groups all H*W pixels by cluster for
    every head (one stable sort of the smallest label dtype, which numpy
    radix-sorts); each later query copies one slice.
    """
    _check_index("stage", stage, len(trace.states))
    _check_index("block", block, len(trace.states[stage]))
    st = trace.states[stage][block]
    _check_index("head", head, st.heads)
    m = st.assignment.m
    _check_index("cluster", cluster, m)
    key = (stage, block)
    if key not in trace._fields:
        _check_fit(trace, stage)
        labels = st.assignment.cols[:, _pixel_labels(trace, stage).ravel()]
        orders = np.argsort(labels.astype(np.min_scalar_type(m)), axis=-1, kind="stable")
        trace._fields[key] = [(order, np.searchsorted(lab[order], np.arange(m + 1)))
                              for lab, order in zip(labels, orders)]
    order, bounds = trace._fields[key][head]
    return order[bounds[cluster]:bounds[cluster + 1]].copy()


# ---------------------------------------------------------------------------
# K-Means merging
# ---------------------------------------------------------------------------

#: Lloyd step limit and k-means++ seed: merged maps are a pure function of the centers.
KMEANS_ITERS = 100
KMEANS_SEED = 0


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel groups in order of first appearance (stable, readable ids)."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first)).astype(np.int64)[inverse]


def kmeans_merge(centers: np.ndarray, k: int) -> np.ndarray:
    """Group m center vectors into k clusters by Lloyd iterations.

    k-means++ seeded with KMEANS_SEED; distance ties take the lowest index;
    a group that loses all members keeps its previous centroid. Labels are
    canonicalized by first appearance, so k == m yields the identity
    labeling and k == 1 all zeros.
    """
    try:
        centers = np.asarray(centers)
    except ValueError as exc:
        raise DimensionError("kmeans_merge: centers must be (m, c), got ragged rows") from exc
    if centers.ndim != 2:
        raise DimensionError(f"kmeans_merge: centers must be (m, c), got shape {centers.shape}")
    if centers.dtype.kind not in "biuf" or not np.all(np.isfinite(centers)):
        raise ConfigError(f"kmeans_merge: centers must be finite numbers, got {centers.dtype}")
    centers = centers.astype(np.float64, copy=False)
    m = centers.shape[0]
    if not (is_int(k) and 1 <= k <= m):
        raise ConfigError(f"k must be an integer in [1,{m}], got {k}")
    rng = np.random.default_rng(KMEANS_SEED)

    # k-means++ seeding
    means = np.empty((k, centers.shape[1]))
    first = int(rng.integers(m))
    means[0] = centers[first]
    d2 = ((centers - means[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            means[j] = centers[int(rng.integers(m))]
        else:
            means[j] = centers[np.searchsorted(np.cumsum(d2 / total), rng.uniform())]
        d2 = np.minimum(d2, ((centers - means[j]) ** 2).sum(axis=1))

    labels = np.zeros(m, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        dist = ((centers[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)          # first min = lowest index
        for j in np.unique(new_labels):
            means[j] = centers[new_labels == j].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return _canonical_labels(labels)


# ---------------------------------------------------------------------------
# overlay rendering
# ---------------------------------------------------------------------------

#: 12 well-separated base colors; longer palettes rotate hue deterministically.
_BASE_PALETTE = [
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 190), (0, 128, 128), (230, 190, 255),
]
#: weight of a set's color over the image pixels it covers.
OVERLAY_ALPHA = 0.5


def default_palette(count: int) -> list[tuple[int, int, int]]:
    """Deterministic list of ``count`` distinct RGB colors."""
    return _BASE_PALETTE[:count] + [    # then golden-ratio hue steps
        tuple(int(ch * 255) for ch in colorsys.hsv_to_rgb((i * 0.6180339887498949) % 1.0, 0.85, 0.95))
        for i in range(count - len(_BASE_PALETTE))]


@dataclass
class OverlaySpec:
    """Rendering options for cluster maps."""

    palette: list[tuple[int, int, int]] = field(default_factory=lambda: list(_BASE_PALETTE))
    outline: bool = False


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write (H, W, 3) uint8 pixels as binary PPM (P6, maxval 255)."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise DimensionError(f"write_ppm expects (H, W, 3) uint8, got {pixels.shape} {pixels.dtype}")
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM written by write_ppm."""
    with open(path, "rb") as fh:
        parts = fh.read().split(b"\n", 3)
    try:    # the sign is checked apart: a -1 1 header reshapes a 3-byte payload
        w, h = (int(v) for v in parts[1].split())
        if parts[0] == b"P6" and parts[2] == b"255" and w >= 0 and h >= 0:
            return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w, 3)
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: not a P6/255 PPM ({type(exc).__name__}: {exc})") from exc
    raise FormatError(f"{path}: not a P6/255 PPM of non-negative size")


def render_overlay(image: np.ndarray, pixel_sets: list, spec: OverlaySpec,
                   out_path) -> np.ndarray:
    """Alpha-blend one color per pixel set over the image; write PPM.

    ``image`` is (H, W, 3) in [0,1] float or uint8. A pixel set is an integer
    array or a set of ints, each a flat index ``r * W + c``; a later set wins
    where two overlap. The palette gives each set an RGB triple of numbers in
    [0, 255]. Returns the rendered uint8 array (also written to ``out_path``).
    """
    n = len(pixel_sets)
    try:    # the last row stands for unlabelled pixels (label -1); a ragged palette has no array
        rgb = np.array([*spec.palette[:n], (0, 0, 0)])
    except ValueError:
        rgb = np.empty(0)
    if rgb.shape != (n + 1, 3) or rgb.dtype.kind not in "iuf" or not np.all((rgb >= 0) & (rgb <= 255)):
        raise ConfigError(f"palette must give each of {n} sets an RGB triple of numbers in [0, 255]")
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DimensionError(f"render_overlay: image must be (H, W, 3), got shape {img.shape}")
    if img.dtype.kind not in "biuf" or not np.all(np.isfinite(img)):
        raise ConfigError(f"render_overlay: image must be finite numbers, got {img.dtype}")
    if img.dtype == np.uint8:
        base = img.astype(np.float64) / 255.0
    else:
        base = np.clip(img.astype(np.float64), 0.0, 1.0)
    hh, ww = base.shape[:2]
    label = np.full(hh * ww, -1)
    for idx, pset in enumerate(pixel_sets):
        try:    # the elements give the dtype; an empty set has none to give it
            pix = np.asarray(pset if isinstance(pset, np.ndarray) else list(pset) or np.empty(0, int))
            flat = pix.ndim == 1 and pix.dtype.kind in "iu"
        except (TypeError, ValueError):      # not iterable, or elements of different shapes
            flat = False
        if not flat:
            raise DimensionError(f"pixel set {idx} is not a list of flat pixel indices")
        bad = np.flatnonzero((pix < 0) | (pix >= hh * ww))
        if bad.size:
            raise ConfigError(f"pixel {pix[bad[0]]} outside {hh}x{ww} image")
        label[pix] = idx
    label = label.reshape(hh, ww)
    color = (rgb / 255.0)[label]
    out = np.where(label[..., None] >= 0, (1.0 - OVERLAY_ALPHA) * base + OVERLAY_ALPHA * color, base)
    if spec.outline:
        # a labelled pixel with a differently labelled 4-neighbour takes its own color
        pad = np.pad(label, 1, mode="edge")
        nbrs = [pad[:-2, 1:-1], pad[2:, 1:-1], pad[1:-1, :-2], pad[1:-1, 2:]]
        edge = (label >= 0) & np.any([nb != label for nb in nbrs], axis=0)
        out = np.where(edge[..., None], color, out)
    rendered = np.clip(np.rint(out * 255.0), 0, 255).astype(np.uint8)
    write_ppm(out_path, rendered)
    return rendered


# ---------------------------------------------------------------------------
# trace dump IO
# ---------------------------------------------------------------------------

def write_trace(path, trace: TraceBundle) -> None:
    """Serialize a TraceBundle into the binary container format."""
    entries: dict[str, np.ndarray] = {
        "patch": np.asarray([trace.patch], dtype=np.int32),
        "num_stages": np.asarray([len(trace.stage_hw)], dtype=np.int32),
    }
    for k, hw in enumerate(trace.stage_hw):
        entries[f"stage{k + 1}/map_hw"] = np.asarray(hw, dtype=np.int32)
    for k, states in enumerate(trace.states):
        tag = f"stage{k + 1}"
        entries[f"{tag}/num_blocks"] = np.asarray([len(states)], dtype=np.int32)
        for j, st in enumerate(states):
            btag = f"{tag}/block{j + 1}"
            entries[f"{btag}/assignment/cols"] = st.assignment.cols.astype(np.int32)
            entries[f"{btag}/assignment/weights"] = st.assignment.weights.astype(np.float32)
            entries[f"{btag}/centers"] = st.centers_v.astype(np.float32)
            entries[f"{btag}/grid_hw"] = np.asarray(st.grid_hw, dtype=np.int32)
    for k, pool in enumerate(trace.pools):
        entries[f"stage{k + 1}/pool/owner"] = pool.owner.astype(np.int32)
    C.write_container(path, entries)


def read_trace(path) -> TraceBundle:
    """Inverse of write_trace. The image size (stage 1's map times the patch)
    and each pool's grid (the next stage's map) are derived, not stored.
    Raises FormatError when an entry is missing or does not fit the maps it
    indexes (``_check_fit``, as for a trace in memory), when a block's grid
    does not hold its m centers, or when its weights are not shaped as its cols.
    The patch, the stage count and every map and grid extent are at least 1;
    centers and weights are floating point."""
    entries = C.read_container(path)

    def need(key, shape=None, least=0):
        """Entry ``key``; given ``shape``, integers of that shape, at least ``least``."""
        if key not in entries:
            raise FormatError(f"trace missing entry {key!r}")
        if shape is not None and not _ints_in(entries[key], shape, least=least):
            raise FormatError(f"trace entry {key!r} is not {shape} integers of at least {least}")
        return entries[key]

    def need_floats(key):
        a = need(key)
        if a.dtype.kind != "f":
            raise FormatError(f"trace entry {key!r} holds {a.dtype}, not floating point")
        return a

    def need_hw(key):
        return tuple(int(v) for v in need(key, (2,), least=1))

    patch = int(need("patch", (1,), least=1)[0])
    num_stages = int(need("num_stages", (1,), least=1)[0])
    stage_hw = [need_hw(f"stage{k + 1}/map_hw") for k in range(num_stages)]
    states: list[list[ClusterState]] = []
    for k in range(num_stages):
        tag = f"stage{k + 1}"
        blocks = []
        for j in range(int(need(f"{tag}/num_blocks", (1,))[0])):
            btag = f"{tag}/block{j + 1}"
            centers = need_floats(f"{btag}/centers")
            cols = need(f"{btag}/assignment/cols")
            weights = need_floats(f"{btag}/assignment/weights")
            if centers.ndim != 2 or cols.ndim != 2 or weights.shape != cols.shape:
                raise FormatError(f"trace block {btag!r} centers, cols or weights are misshapen")
            grid = need_hw(f"{btag}/grid_hw")
            if math.prod(grid) != len(centers):
                raise FormatError(f"trace block {btag!r} grid {grid} does not hold {len(centers)} centers")
            blocks.append(ClusterState(
                centers_v=centers, soft_sim=None,
                assignment=HardAssignment(cols, weights, m=len(centers)),
                heads=len(cols), grid_hw=grid))
        states.append(blocks)
    pools = [PoolAssignment(owner=need(f"stage{k + 1}/pool/owner"), m=math.prod(grid), grid_hw=grid)
             for k, grid in enumerate(stage_hw[1:])]
    trace = TraceBundle(image_hw=(stage_hw[0][0] * patch, stage_hw[0][1] * patch), patch=patch,
                        stage_hw=stage_hw, states=states, pools=pools)
    for k in range(num_stages):
        _check_fit(trace, k, FormatError)
    return trace
