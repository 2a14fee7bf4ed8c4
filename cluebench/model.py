"""The benchmarked network, assembled from cluenet's public functions.

stem (patch_embed + pos_residual) -> S stages of gfc blocks, joined by
transitions -> head (layer_norm, global mean, linear). Block 0 of a stage
owns the hard assignment; later blocks reuse it and route their weight
gradient back through ``d_shared``.

Every call into the package goes through a module attribute
(``gfc.gfc_block_forward``, ``T.linear``, ...) so that the tracer in
spans.py can wrap it from outside.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from cluenet import container, gfc, icp, interpret, pfe
from cluenet import tensor as T


@dataclass(frozen=True)
class Preset:
    name: str
    image: int
    widths: tuple[int, ...]
    heads: tuple[int, ...]
    grids: tuple[tuple[int, int], ...]
    transitions: tuple[str, ...]     # "icp" halves the map, "linear" keeps it
    blocks: int = 2
    classes: int = 10


# 112x112 -> 28x28 -> 14x14 -> 7x7 -> 7x7: the last transition is linear
# because 7x7 cannot halve.
SMALL = Preset("small", 112, (32, 64, 128, 256), (1, 2, 4, 8),
               ((7, 7), (7, 7), (4, 4), (4, 4)), ("icp", "icp", "linear"))
# 32x32 -> 8x8 -> 4x4 -> 2x2 -> 2x2; for the benchmark's own tests.
TINY = Preset("tiny", 32, (8, 16, 32, 64), (1, 2, 2, 4),
              ((4, 4), (2, 2), (2, 2), (2, 2)), ("icp", "icp", "linear"))
PRESETS = {p.name: p for p in (SMALL, TINY)}


@dataclass
class HeadParams:
    norm_g: T.Parameter
    norm_b: T.Parameter
    w: T.Parameter
    b: T.Parameter

    def params(self) -> list[T.Parameter]:
        return [self.norm_g, self.norm_b, self.w, self.b]


@dataclass
class Net:
    preset: Preset
    grid: np.ndarray
    stem: pfe.PatchEmbedParams
    stages: list[list[gfc.GfcParams]]
    transitions: list
    head: HeadParams

    def params(self) -> list[T.Parameter]:
        out = list(self.stem.params())
        for blocks in self.stages:
            for p in blocks:
                out.extend(p.params())
        for t in self.transitions:
            out.extend(t.params())
        out.extend(self.head.params())
        return out

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad = None


def build(preset: Preset, seed: int = 0, dtype=T.F32) -> Net:
    """Initialise a network. The zero-initialised residual projections
    (fc_out, ffn_w2) get trunc-normal(0.02) values: at zero every block is
    the identity and the output checks would pass vacuously."""
    rng = np.random.default_rng(seed)

    def tn(name, shape):
        return T.Parameter(name, T.trunc_normal(rng, shape, 0.02, dtype))

    d0 = preset.widths[0]
    stem = pfe.PatchEmbedParams(
        weight=tn("stem.weight", (d0, pfe.PATCH, pfe.PATCH, 5)),
        bias=T.Parameter("stem.bias", np.zeros(d0, dtype=dtype)),
        dw=tn("stem.dw", (3, 3, d0)))
    stages, transitions = [], []
    for s, (d, heads, grid) in enumerate(zip(preset.widths, preset.heads, preset.grids)):
        blocks = []
        for j in range(preset.blocks):
            p = gfc.make_gfc_params(rng, d, d, heads, grid, owns_assignment=j == 0,
                                    dtype=dtype, name=f"s{s + 1}.b{j}")
            p.fc_out.value = T.trunc_normal(rng, p.fc_out.shape, 0.02, dtype)
            p.ffn_w2.value = T.trunc_normal(rng, p.ffn_w2.shape, 0.02, dtype)
            blocks.append(p)
        stages.append(blocks)
        if s < len(preset.transitions):
            d_out, name = preset.widths[s + 1], f"t{s + 1}"
            if preset.transitions[s] == "icp":
                transitions.append(icp.make_icp_params(rng, d, d_out, dtype=dtype, name=name))
            else:
                transitions.append(icp.make_linear_transition(rng, d, d_out, dtype=dtype, name=name))
    dl = preset.widths[-1]
    head = HeadParams(T.Parameter("head.norm_g", np.ones(dl, dtype=dtype)),
                      T.Parameter("head.norm_b", np.zeros(dl, dtype=dtype)),
                      tn("head.w", (preset.classes, dl)),
                      T.Parameter("head.b", np.zeros(preset.classes, dtype=dtype)))
    grid = pfe.make_grid(preset.image, preset.image, dtype)
    return Net(preset, grid, stem, stages, transitions, head)


def cast(net: Net, dtype) -> Net:
    """Copy of ``net`` with every parameter (and the grid) cast to dtype."""
    out = copy.deepcopy(net)
    out.grid = out.grid.astype(dtype)
    for p in out.params():
        p.value = p.value.astype(dtype)
        p.grad = None
    return out


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """What one forward did, batched: the owner block's ClusterState per
    stage, the transition partitions, and the stage/transition outputs."""

    states: list[gfc.ClusterState] = field(default_factory=list)
    pools: list[icp.PoolAssignment] = field(default_factory=list)
    stage_outs: list[np.ndarray] = field(default_factory=list)
    trans_outs: list[np.ndarray] = field(default_factory=list)


def head_forward(x: np.ndarray, p: HeadParams):
    """layer_norm -> mean over the map -> linear; (B,H,W,d) -> (B,classes)."""
    xn, back_norm = T.layer_norm(x, p.norm_g, p.norm_b)
    area = x.shape[1] * x.shape[2]
    logits, back_lin = T.linear(xn.mean(axis=(1, 2)), p.w, p.b)

    def backward(d_logits: np.ndarray) -> np.ndarray:
        d_pooled = back_lin(d_logits) / area
        return back_norm(np.broadcast_to(d_pooled[:, None, None, :], xn.shape))

    return logits, backward


def _stage_backward(backs):
    """Later blocks hand their assignment-weight gradient to the owner."""
    def backward(dy):
        d_shared = None
        for back in reversed(backs[1:]):
            dy, d_w = back(dy)
            d_shared = d_w if d_shared is None else d_shared + d_w
        return backs[0](dy, d_shared=d_shared)
    return backward


def forward(net: Net, x: np.ndarray):
    """(B,H,W,3) -> (logits, Record, backward); backward(d_logits) -> dx."""
    h, back_embed = pfe.patch_embed(x, net.grid, net.stem.weight, net.stem.bias)
    h, back_pos = pfe.pos_residual(h, net.stem.dw)
    backs = [back_embed, back_pos]
    rec = Record()
    for s, blocks in enumerate(net.stages):
        shared, stage_backs = None, []
        for p in blocks:
            h, state, back = gfc.gfc_block_forward(h, p, shared)
            if shared is None:
                shared = state.assignment
                rec.states.append(state)
            stage_backs.append(back)
        backs.append(_stage_backward(stage_backs))
        rec.stage_outs.append(h)
        if s < len(net.transitions):
            tp = net.transitions[s]
            if isinstance(tp, icp.IcpParams):
                h, pool, back = icp.icp_forward(h, tp)
            else:
                h, pool, back = icp.linear_transition_forward(h, tp)
            backs.append(back)
            rec.pools.append(pool)
            rec.trans_outs.append(h)
    logits, back_head = head_forward(h, net.head)
    backs.append(back_head)

    def backward(d_logits: np.ndarray) -> np.ndarray:
        d = d_logits
        for back in reversed(backs):
            d = back(d)
        return d

    return logits, rec, backward


def xent(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(len(labels))
    loss = -float(logp[rows, labels].mean())
    d = np.exp(logp)
    d[rows, labels] -= 1.0
    return loss, (d / len(labels)).astype(logits.dtype, copy=False)


def train_step(net: Net, x: np.ndarray, labels: np.ndarray):
    """Forward, loss and backward; parameter gradients land in ``p.grad``."""
    net.zero_grad()
    logits, rec, backward = forward(net, x)
    loss, d_logits = xent(logits, labels)
    dx = backward(d_logits)
    return loss, logits, dx, rec


# ---------------------------------------------------------------------------
# checkpoints and traces
# ---------------------------------------------------------------------------

def checkpoint_roundtrip(net: Net, path) -> tuple[int, int]:
    """write_container -> read_container with a ``__config__`` text entry.

    Returns (mismatches, bytes): entries whose shape, dtype or bytes differ
    after the round trip, and the file size. Raises if the config text or an
    entry name does not come back.
    """
    entries = {p.name: p.value for p in net.params()}
    entries["__config__"] = container.pack_text(json.dumps(asdict(net.preset)))
    container.write_container(path, entries)
    back = container.read_container(path)
    if list(back) != list(entries):
        raise RuntimeError("checkpoint entry names changed in the round trip")
    if json.loads(container.unpack_text(back["__config__"])) != json.loads(json.dumps(asdict(net.preset))):
        raise RuntimeError("checkpoint __config__ changed in the round trip")
    mismatches = sum(1 for k, v in entries.items()
                     if back[k].shape != v.shape or back[k].dtype != v.dtype
                     or back[k].tobytes() != np.asarray(v).tobytes())
    with open(path, "rb") as fh:
        size = len(fh.read())
    return mismatches, size


def trace_bundle(rec: Record, preset: Preset) -> interpret.TraceBundle:
    """Single-image TraceBundle with the batch axis squeezed away:
    gfc_block_forward keeps it even for 3-D input, and receptive-field
    lookups index the squeezed arrays."""
    states = []
    for st in rec.states:
        a = st.assignment
        states.append([gfc.ClusterState(
            centers_v=st.centers_v[0],
            soft_sim=None if st.soft_sim is None else st.soft_sim[0],
            assignment=gfc.HardAssignment(a.cols[0], a.weights[0], a.m),
            heads=st.heads, grid_hw=st.grid_hw)])
    pools = [icp.PoolAssignment(owner=p.owner[0], m=p.m, grid_hw=p.grid_hw) for p in rec.pools]
    stage_hw = [tuple(int(v) for v in o.shape[1:3]) for o in rec.stage_outs]
    return interpret.TraceBundle(image_hw=(preset.image, preset.image), patch=pfe.PATCH,
                                 stage_hw=stage_hw, states=states, pools=pools)
