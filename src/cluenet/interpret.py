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
from .errors import FormatError


@dataclass
class TraceBundle:
    """Everything one single-image forward recorded.

    ``states[k]`` holds the ClusterStates of stage k (one entry when the
    stage shares its assignment, else one per block); ``pools[k]`` is the
    partition of the transition after stage k. All arrays are squeezed
    (no batch dimension).
    """

    image_hw: tuple[int, int]
    patch: int
    stage_hw: list[tuple[int, int]]
    states: list[list[ClusterState]]
    pools: list[PoolAssignment]


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


def receptive_field(trace: TraceBundle, stage: int, point: int) -> np.ndarray:
    """Image pixels feeding feature point ``point`` of ``stage`` (0-based).

    ``point`` is the flat row-major index into the stage map. The result is
    the patch blocks of the stage-0 points that the composed owner map
    sends to ``point``, as ascending flat pixel indices.
    """
    if not 0 <= stage < len(trace.stage_hw):
        raise ValueError(f"stage {stage} out of range [0,{len(trace.stage_hw)})")
    hh, ww = trace.stage_hw[stage]
    if not 0 <= point < hh * ww:
        raise ValueError(f"point {point} out of range for a {hh}x{ww} map")
    return np.flatnonzero(_pixel_labels(trace, stage) == point)


def cluster_receptive_field(trace: TraceBundle, stage: int, cluster: int,
                            head: int, block: int = 0) -> np.ndarray:
    """Image pixels feeding the points of ``stage`` assigned to ``cluster``.

    The patch blocks of the stage-0 points whose composed owner has column
    ``cluster`` under ``head``, as ascending flat indices (empty if none).
    """
    if not 0 <= stage < len(trace.stage_hw):
        raise ValueError(f"stage {stage} out of range [0,{len(trace.stage_hw)})")
    states = trace.states[stage]
    if not 0 <= block < len(states):
        raise ValueError(f"block {block} out of range [0,{len(states)})")
    st = states[block]
    if not 0 <= head < st.heads:
        raise ValueError(f"head {head} out of range [0,{st.heads})")
    cols = st.assignment.cols[head]
    if not 0 <= cluster < st.assignment.m:
        raise ValueError(f"cluster {cluster} out of range [0,{st.assignment.m})")
    return np.flatnonzero(cols[_pixel_labels(trace, stage)] == cluster)


# ---------------------------------------------------------------------------
# K-Means merging
# ---------------------------------------------------------------------------

def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel groups in order of first appearance (stable, readable ids)."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first)).astype(np.int64)[inverse]


def kmeans_merge(centers: np.ndarray, k: int, iters: int = 100,
                 seed: int = 0) -> np.ndarray:
    """Group m center vectors into k clusters by Lloyd iterations.

    Seeded k-means++ initialization; distance ties take the lowest index;
    a group that loses all members keeps its previous centroid. Labels are
    canonicalized by first appearance, so k == m yields the identity
    labeling and k == 1 all zeros.
    """
    centers = np.asarray(centers, dtype=np.float64)
    m = centers.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1,{m}], got {k}")
    rng = np.random.default_rng(seed)

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
    for _ in range(iters):
        dist = ((centers[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)          # first min = lowest index
        for j in range(k):
            sel = new_labels == j
            if sel.any():
                means[j] = centers[sel].mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
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


def default_palette(count: int) -> list[tuple[int, int, int]]:
    """Deterministic list of ``count`` distinct RGB colors."""
    out = list(_BASE_PALETTE)
    i = 0
    while len(out) < count:
        h = (i * 0.6180339887498949) % 1.0       # golden-ratio hue steps
        out.append(tuple(int(ch * 255) for ch in colorsys.hsv_to_rgb(h, 0.85, 0.95)))
        i += 1
    return out[:count]


@dataclass
class OverlaySpec:
    """Rendering options for cluster maps."""

    palette: list[tuple[int, int, int]] = field(default_factory=lambda: list(_BASE_PALETTE))
    alpha: float = 0.5
    outline: bool = False


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write (H, W, 3) uint8 pixels as binary PPM (P6, maxval 255)."""
    h, w, c = pixels.shape
    if c != 3 or pixels.dtype != np.uint8:
        raise ValueError("write_ppm expects (H, W, 3) uint8")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM written by write_ppm."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise FormatError(f"{path}: not a P6/255 PPM")
    try:
        w, h = (int(v) for v in parts[1].split())
    except ValueError as exc:
        raise FormatError(f"{path}: bad PPM size line {parts[1]!r}") from exc
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    if pixels.size != h * w * 3:
        raise FormatError(f"{path}: payload size {pixels.size} != {h * w * 3}")
    return pixels.reshape(h, w, 3)


def render_overlay(image: np.ndarray, pixel_sets: list, spec: OverlaySpec,
                   out_path) -> np.ndarray:
    """Alpha-blend one color per pixel set over the image; write PPM.

    ``image`` is (H, W, 3) in [0,1] float or uint8. A pixel set is an integer
    array or a set of ints, each a flat index ``r * W + c``; a later set wins
    where two overlap. Returns the rendered uint8 array (also written to ``out_path``).
    """
    if len(spec.palette) < len(pixel_sets):
        raise ValueError(f"palette has {len(spec.palette)} colors for {len(pixel_sets)} sets")
    if not 0.0 <= spec.alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {spec.alpha}")
    img = np.asarray(image)
    if img.dtype == np.uint8:
        base = img.astype(np.float64) / 255.0
    else:
        base = np.clip(img.astype(np.float64), 0.0, 1.0)
    hh, ww = base.shape[:2]
    out = base.copy()
    label = np.full((hh, ww), -1, dtype=np.int64)
    flat_base, flat_out, flat_label = base.reshape(-1, 3), out.reshape(-1, 3), label.reshape(-1)
    colors = np.array(spec.palette[:len(pixel_sets)], dtype=np.float64).reshape(-1, 3) / 255.0
    for idx, pset in enumerate(pixel_sets):
        pix = pset if isinstance(pset, np.ndarray) else np.array(list(pset), dtype=np.int64)
        if pix.ndim != 1 or pix.dtype.kind not in "iu":
            raise ValueError(f"pixel set {idx} is not a list of flat pixel indices")
        bad = np.flatnonzero((pix < 0) | (pix >= hh * ww))
        if bad.size:
            raise ValueError(f"pixel {pix[bad[0]]} outside {hh}x{ww} image")
        flat_out[pix] = (1.0 - spec.alpha) * flat_base[pix] + spec.alpha * colors[idx]
        flat_label[pix] = idx
    if spec.outline:
        # a labelled pixel with a differently labelled 4-neighbour takes its own color
        edge = np.zeros((hh, ww), dtype=bool)
        edge_r = label[:-1, :] != label[1:, :]
        edge_c = label[:, :-1] != label[:, 1:]
        edge[:-1, :] |= edge_r
        edge[1:, :] |= edge_r
        edge[:, :-1] |= edge_c
        edge[:, 1:] |= edge_c
        edge &= label >= 0
        out[edge] = colors[label[edge]]
    rendered = np.clip(np.rint(out * 255.0), 0, 255).astype(np.uint8)
    write_ppm(out_path, rendered)
    return rendered


# ---------------------------------------------------------------------------
# trace dump IO
# ---------------------------------------------------------------------------

def write_trace(path, trace: TraceBundle) -> None:
    """Serialize a TraceBundle into the binary container format."""
    entries: dict[str, np.ndarray] = {
        "image_hw": np.asarray(trace.image_hw, dtype=np.int32),
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
        tag = f"stage{k + 1}/pool"
        entries[f"{tag}/owner"] = pool.owner.astype(np.int32)
        entries[f"{tag}/grid_hw"] = np.asarray(pool.grid_hw, dtype=np.int32)
    C.write_container(path, entries)


def read_trace(path) -> TraceBundle:
    """Inverse of write_trace. Raises FormatError when an entry is missing or
    does not fit the maps it indexes: the image is stage 1's map times the
    patch, a pool sends its stage into the next stage's map, and a block's
    cols and weights are (heads, n) with cols in [0, m)."""
    entries = C.read_container(path)

    def need(key, shape=None, below=np.inf):
        """Entry ``key``; given ``shape``, integers of that shape in [0, below)."""
        if key not in entries:
            raise FormatError(f"trace missing entry {key!r}")
        a = entries[key]
        if shape is not None and not (a.shape == shape and a.dtype.kind in "iu"
                                      and np.all((a >= 0) & (a < below))):
            raise FormatError(f"trace entry {key!r} is not {shape} integers in [0, {below})")
        return a

    def need_hw(key):
        return tuple(int(v) for v in need(key, (2,)))

    image_hw = need_hw("image_hw")
    patch = int(need("patch")[0])
    num_stages = int(need("num_stages")[0])
    stage_hw = [need_hw(f"stage{k + 1}/map_hw") for k in range(num_stages)]
    if not stage_hw or image_hw != (stage_hw[0][0] * patch, stage_hw[0][1] * patch):
        raise FormatError(f"trace image {image_hw} is not stage 1's map times patch {patch}")
    states: list[list[ClusterState]] = []
    for k, (hh, ww) in enumerate(stage_hw):
        tag = f"stage{k + 1}"
        blocks = []
        for j in range(int(need(f"{tag}/num_blocks")[0])):
            btag = f"{tag}/block{j + 1}"
            centers = need(f"{btag}/centers")
            cols = need(f"{btag}/assignment/cols")
            weights = need(f"{btag}/assignment/weights")
            if centers.ndim != 2 or cols.ndim != 2 or weights.shape != cols.shape:
                raise FormatError(f"trace block {btag!r} centers, cols or weights are misshapen")
            need(f"{btag}/assignment/cols", (len(cols), hh * ww), len(centers))
            blocks.append(ClusterState(
                centers_v=centers, soft_sim=None,
                assignment=HardAssignment(cols, weights, m=len(centers)),
                heads=len(cols), grid_hw=need_hw(f"{btag}/grid_hw")))
        states.append(blocks)
    pools = []
    for k in range(num_stages - 1):
        tag = f"stage{k + 1}/pool"
        grid = need_hw(f"{tag}/grid_hw")
        if grid != stage_hw[k + 1]:
            raise FormatError(f"trace pool {k + 1} grid {grid} is not stage {k + 2}'s map")
        owner = need(f"{tag}/owner", (math.prod(stage_hw[k]),), math.prod(grid))
        pools.append(PoolAssignment(owner=owner, m=math.prod(grid), grid_hw=grid))
    return TraceBundle(image_hw=image_hw, patch=patch, stage_hw=stage_hw,
                       states=states, pools=pools)
