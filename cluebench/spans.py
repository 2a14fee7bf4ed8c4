"""Outside-in tracer: wraps cluenet's public functions and their backward
closures by patching module attributes, and restores them on exit.

Keys it accumulates, in seconds, until ``take()`` clears them:

* ``tensor.<op>.<fwd|bwd>``: self time of a primitive (its span minus the
  wrapped spans nested in it);
* ``pfe.stem``, ``icp.t<k>``, ``head`` ``.<fwd|bwd>``: inclusive time of
  the layer call or its closure;
* ``gfc.s<k>.<phase>.<fwd|bwd>``: one gfc_block_forward call (or its
  closure) cut into phases at the calls it makes, so the six phases
  partition the block's time;
* ``interpret.<fn>``, ``container.<fn>``: inclusive time of those calls.

The wrappers pass every argument and result through untouched, so traced
outputs are bitwise equal to untraced ones.
"""

from __future__ import annotations

import time
from collections import defaultdict

from cluenet import container, gfc, icp, interpret, pfe
from cluenet import tensor as T

from . import model

TENSOR_OPS = ("linear", "gelu", "dwconv2d", "layer_norm", "cosine_sim",
              "softmax", "sigmoid", "adaptive_avg_pool2d")
PHASES = ("proj", "aggregate", "fuse", "assign", "dispatch", "ffn")

# gfc callee -> (phase on forward entry, phase on forward exit,
#                phase on closure entry, phase on closure exit); None = keep.
_GFC_MARKS = {
    "init_centers": ("aggregate", None, "aggregate", "proj"),
    "soft_aggregate": ("aggregate", None, "aggregate", None),
    "gated_fuse": ("fuse", None, "fuse", "aggregate"),
    "project_queries": ("assign", None, "assign", None),
    "compute_assignment": ("assign", None, "assign", None),
    "dispatch": ("dispatch", "ffn", "dispatch", "assign"),
}


class Tracer:
    """Context manager; ``labels`` maps id(block/transition params) to
    their stage tag ("s1", "t2", ...)."""

    def __init__(self, net: model.Net):
        self.labels = {}
        for s, blocks in enumerate(net.stages):
            for p in blocks:
                self.labels[id(p)] = f"s{s + 1}"
        for k, t in enumerate(net.transitions):
            self.labels[id(t)] = f"t{k + 1}"
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []     # [key, start, child time]
        self._blocks: list[list] = []    # [stage tag, direction, phase, start]
        self._saved: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _call(self, key, self_timed, fn, args, kwargs):
        frame = [key, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += dur
            self.totals[key] += dur - frame[2] if self_timed else dur

    def _phase(self, phase):
        if phase is None or not self._blocks:
            return
        ctx = self._blocks[-1]
        now = time.perf_counter()
        self.totals[f"gfc.{ctx[0]}.{ctx[2]}.{ctx[1]}"] += now - ctx[3]
        ctx[2], ctx[3] = phase, now

    def _block_call(self, tag, direction, first, fn, args, kwargs):
        self._blocks.append([tag, direction, first, time.perf_counter()])
        try:
            return fn(*args, **kwargs)
        finally:
            self._phase("ffn")          # close the open phase
            self._blocks.pop()

    def _with_closure(self, res, wrap_back):
        """Replace the trailing backward closure of a result tuple."""
        return res[:-1] + (wrap_back(res[-1]),)

    # -- wrapper factories -------------------------------------------------

    def _spanned(self, fwd_key, bwd_key, self_timed, fn):
        def back_wrapper(back):
            return lambda *a, **k: self._call(bwd_key, self_timed, back, a, k)

        def wrapper(*a, **k):
            res = self._call(fwd_key, self_timed, fn, a, k)
            return self._with_closure(res, back_wrapper) if bwd_key else res
        return wrapper

    def _labelled(self, layer, fn):
        """Layer call whose stage tag comes from its params argument."""
        def wrapper(x, p, *a, **k):
            key = f"{layer}.{self.labels[id(p)]}"
            res = self._call(f"{key}.fwd", False, fn, (x, p) + a, k)
            return self._with_closure(
                res, lambda back: lambda *b, **kb: self._call(f"{key}.bwd", False, back, b, kb))
        return wrapper

    def _block(self, fn):
        def wrapper(x, p, *a, **k):
            tag = self.labels[id(p)]
            res = self._block_call(tag, "fwd", "proj", fn, (x, p) + a, k)
            return self._with_closure(
                res, lambda back: lambda *b, **kb: self._block_call(tag, "bwd", "ffn", back, b, kb))
        return wrapper

    def _marked(self, marks, fn):
        f_in, f_out, b_in, b_out = marks

        def back_wrapper(back):
            def run(*a, **k):
                self._phase(b_in)
                out = back(*a, **k)
                self._phase(b_out)
                return out
            return run

        def wrapper(*a, **k):
            self._phase(f_in)
            res = fn(*a, **k)
            self._phase(f_out)
            return self._with_closure(res, back_wrapper)
        return wrapper

    # -- install / restore -------------------------------------------------

    def _patch(self, module, name, new):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def __enter__(self):
        for op in TENSOR_OPS:
            self._patch(T, op, self._spanned(f"tensor.{op}.fwd", f"tensor.{op}.bwd", True,
                                             getattr(T, op)))
        # mlp2 looks its activation up in this table, not in the module
        self._saved.append((T.ACTIVATIONS, "gelu", T.ACTIVATIONS["gelu"]))
        T.ACTIVATIONS["gelu"] = T.gelu
        for fn in ("patch_embed", "pos_residual"):
            self._patch(pfe, fn, self._spanned("pfe.stem.fwd", "pfe.stem.bwd", False,
                                               getattr(pfe, fn)))
        for fn, marks in _GFC_MARKS.items():
            self._patch(gfc, fn, self._marked(marks, getattr(gfc, fn)))
        self._patch(gfc, "gfc_block_forward", self._block(gfc.gfc_block_forward))
        for fn in ("icp_forward", "linear_transition_forward"):
            self._patch(icp, fn, self._labelled("icp", getattr(icp, fn)))
        self._patch(model, "head_forward",
                    self._spanned("head.fwd", "head.bwd", False, model.head_forward))
        for fn in ("cluster_receptive_field", "kmeans_merge", "render_overlay",
                   "write_trace", "read_trace"):
            self._patch(interpret, fn, self._spanned(f"interpret.{fn}", None, False,
                                                     getattr(interpret, fn)))
        for fn in ("write_container", "read_container"):
            self._patch(container, fn, self._spanned(f"container.{fn}", None, False,
                                                     getattr(container, fn)))
        return self

    def __exit__(self, *exc):
        for target, name, orig in reversed(self._saved):
            if isinstance(target, dict):
                target[name] = orig
            else:
                setattr(target, name, orig)
        self._saved.clear()
        return False

    def take(self) -> dict[str, float]:
        """Accumulated seconds per key since the last call; resets them."""
        out = dict(self.totals)
        self.totals.clear()
        return out
