"""Output-checked benchmark of the cluenet backbone.

    python3 cluebench/run.py --workload train_small --seed 1 --seconds 30 --trace 0

Workloads, closed loop with one client, on seeded uniform(0,1) images and
labels (step i of seed s draws from default_rng([s, i])):

* ``train_small``    B=8 float32 forward, softmax cross-entropy, backward;
* ``infer_small_b1`` B=1 forward: single-image latency;
* ``explain_small``  B=1 forward, every cluster's receptive field for every
  head of each stage's owner block, kmeans_merge(k=8) of the stage-1
  centers, render_overlay of the merged maps, write_trace -> read_trace.

Every run first sets the network up (build, checkpoint round trip, one
warm-up forward) in this process and in SETUPS - 1 fresh ones, so that each
set-up pays the cold first forward; ``setup_s`` is their median. Then it
measures for ``--seconds``, then checks outputs: every step for finite
values (and the explain checks), the first steps against a float64 re-run
with the same hard assignments, and once a float64 golden and a directional
finite difference.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every step
untraced and then traced on the same inputs and prints the per-layer
metrics (spans.py); forward-only workloads also run the backward of each
traced step, outside its timer, and the others EXPLAIN_PASSES untimed
explain passes, so that every layer is reported. The layer spans must
cover COVERAGE_FLOOR of the untraced step time. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# One BLAS thread unless the caller says otherwise: most of the work is
# single-threaded element-wise numpy, and on a small shared machine a second
# BLAS thread made run-to-run medians spread twice as wide. Must be set
# before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

if __package__ in (None, ""):
    # run as a script: import the package (which puts src/ first on the
    # path) and let the relative imports below resolve against it
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import cluebench  # noqa: F401,E402
    __package__ = "cluebench"  # noqa: A001

import numpy as np

from cluenet import gfc, interpret

from . import checks, model, spans


@dataclass(frozen=True)
class Workload:
    batch: int
    backward: bool
    explain: bool
    # step_ms_tail percentile: at least 10 steps lie beyond it in 30 s, and
    # low enough that its run-to-run spread stays inside the bound
    tail: int
    f64_steps: int     # leading steps re-run in float64


WORKLOADS = {
    "train_small": Workload(8, True, False, tail=60, f64_steps=2),
    "infer_small_b1": Workload(1, False, False, tail=90, f64_steps=8),
    "explain_small": Workload(1, False, True, tail=80, f64_steps=2),
}
SETUPS = 3           # cold set-ups per run, each in its own process
MERGE_K = 8
EXPLAIN_PASSES = 3   # untimed explain passes that give interpret.* to other workloads
# Share of the untraced step time the layer spans must account for. Seen
# 0.96 (explain_small) to 1.03 on `small`; the machine's speed drifts by a
# few percent between the untraced and traced halves of a run.
COVERAGE_FLOOR = 0.9


def inputs(preset: model.Preset, seed: int, step: int, batch: int):
    rng = np.random.default_rng([seed, step])
    x = rng.uniform(0.0, 1.0, (batch, preset.image, preset.image, 3)).astype(np.float32)
    return x, rng.integers(0, preset.classes, batch)


# ---------------------------------------------------------------------------
# set-up and steps
# ---------------------------------------------------------------------------

def setup(preset: model.Preset, batch: int, tmp: str):
    """Build, checkpoint round trip, one warm-up forward.
    Returns (net, seconds, checkpoint mismatches, checkpoint bytes)."""
    t0 = time.perf_counter()
    net = model.build(preset, seed=0)
    mismatch, size = model.checkpoint_roundtrip(net, os.path.join(tmp, "ckpt.clue"))
    model.forward(net, np.full((batch, preset.image, preset.image, 3), 0.5, dtype=np.float32))
    return net, time.perf_counter() - t0, mismatch, size


def cold_setups(argv: list[str]) -> list[float]:
    """Set-up seconds of SETUPS - 1 fresh processes with these arguments."""
    times = []
    for _ in range(SETUPS - 1):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), *argv, "--setup-only"],
                             capture_output=True, text=True, timeout=150, check=True)
        times.append(float(out.stdout.splitlines()[-1]))
    return times


@dataclass
class Explained:
    logits: np.ndarray
    rec: model.Record
    backward: object
    bundle: interpret.TraceBundle
    maps: dict
    rendered: np.ndarray
    trace_back: interpret.TraceBundle


def explain(net: model.Net, img: np.ndarray, tmp: str) -> Explained:
    logits, rec, backward = model.forward(net, img[None])
    bundle = model.trace_bundle(rec, net.preset)
    maps = {}
    for s, (st,) in enumerate(bundle.states):
        for h in range(st.heads):
            for c in range(st.assignment.m):
                maps[s, h, c] = interpret.cluster_receptive_field(bundle, s, c, h, 0)
    groups = interpret.kmeans_merge(bundle.states[0][0].centers_v, k=MERGE_K)
    merged = [set().union(*(maps[0, 0, c] for c in np.flatnonzero(groups == g)))
              for g in range(MERGE_K)]
    spec = interpret.OverlaySpec(palette=interpret.default_palette(MERGE_K), outline=True)
    rendered = interpret.render_overlay(img, merged, spec, os.path.join(tmp, "overlay.ppm"))
    trace_path = os.path.join(tmp, "trace.clue")
    interpret.write_trace(trace_path, bundle)
    back = interpret.read_trace(trace_path)
    return Explained(logits, rec, backward, bundle, maps, rendered, back)


def run_step(wl: Workload, net: model.Net, x, labels, tmp: str) -> dict:
    """One timed step; returns its outputs for the checks."""
    if wl.backward:
        loss, logits, dx, rec = model.train_step(net, x, labels)
        return {"loss": loss, "logits": logits, "dx": dx, "rec": rec}
    if wl.explain:
        ex = explain(net, x[0], tmp)
        return {"logits": ex.logits, "rec": ex.rec, "backward": ex.backward, "explained": ex}
    logits, rec, backward = model.forward(net, x)
    return {"logits": logits, "rec": rec, "backward": backward}


def step_problems(wl: Workload, net: model.Net, out: dict, tmp: str) -> tuple[list[str], int]:
    """Checks every step gets. Returns (problems, trace m mismatches)."""
    problems = checks.finite_problems(logits=out["logits"], dx=out.get("dx"),
                                      loss=np.asarray(out.get("loss", 0.0)))
    if wl.backward:
        problems += [f"non-finite gradient of {p.name}" for p in net.params()
                     if p.grad is not None and not np.all(np.isfinite(p.grad))]
    m_mismatch = 0
    if wl.explain:
        more, m_mismatch = checks.check_explain(out["explained"], os.path.join(tmp, "overlay.ppm"))
        problems += more
    return problems, m_mismatch


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs steps for a fixed time and keeps what the checks need.

    With a tracer, every step runs twice on the same inputs, untraced and
    then traced, so that drift in machine speed cancels out of the tracing
    overhead; only the untraced times feed the end-to-end metrics."""

    def __init__(self, wl: Workload, net: model.Net, seed: int, tmp: str):
        self.wl, self.net, self.seed, self.tmp = wl, net, seed, tmp
        self.step_s: list[float] = []        # untraced step times
        self.traced_s: list[float] = []
        self.layer_steps: list[dict] = []    # tracer totals per traced step
        self.first: dict | None = None       # traced outputs of step 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kept: list[tuple] = []          # (x, labels, outputs) of the first steps
        self.trace_m_mismatch = 0

    def _step(self, x, labels, times: list[float]) -> dict:
        t0 = time.perf_counter()
        out = run_step(self.wl, self.net, x, labels, self.tmp)
        times.append(time.perf_counter() - t0)
        self.attempted += 1
        return out

    def _check(self, i: int, out: dict) -> int:
        problems, m_mismatch = step_problems(self.wl, self.net, out, self.tmp)
        if problems:
            self.failed += 1
            self.problems += [f"step {i}: {p}" for p in problems]
        return m_mismatch

    def run(self, seconds: float, tracer: spans.Tracer | None = None):
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            x, labels = inputs(self.net.preset, self.seed, i, self.wl.batch)
            out = self._step(x, labels, self.step_s)
            m_mismatch = self._check(i, out)
            if i == 0:
                self.trace_m_mismatch = m_mismatch
            if len(self.kept) < self.wl.f64_steps:
                kept = {"logits": out["logits"], "rec": out["rec"], "dx": out.get("dx")}
                if self.wl.backward:
                    kept["grads"] = [p.grad.copy() for p in self.net.params()]
                self.kept.append((x, labels, kept))
            if tracer is not None:
                with tracer:
                    tracer.take()
                    out = self._step(x, labels, self.traced_s)
                    if not self.wl.backward:     # untimed: gives the bwd spans
                        self.net.zero_grad()
                        out["backward"](model.xent(out["logits"], labels)[1])
                    self.layer_steps.append(tracer.take())
                self._check(i, out)
                if i == 0:
                    self.first = out
            i += 1

    def check_f64(self, net64: model.Net) -> int:
        """Compare the kept steps with float64; returns the flip count."""
        flips = 0
        for i, (x, labels, out) in enumerate(self.kept):
            problems, f = checks.compare_f64(net64, x, labels, out, self.wl.backward)
            flips += f
            if problems:
                self.failed += 1
                self.problems += [f"step {i}: {p}" for p in problems]
        return flips


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_outputs_match(net: model.Net, tracer: spans.Tracer, x, labels) -> bool:
    """One training step untraced and traced: bitwise equal outputs?"""
    _, logits, dx, _ = model.train_step(net, x, labels)
    want = [logits, dx] + [p.grad.copy() for p in net.params()]
    with tracer:
        _, logits, dx, _ = model.train_step(net, x, labels)
    got = [logits, dx] + [p.grad for p in net.params()]
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(want, got))


def run_checks(net: model.Net, loop: Loop) -> tuple[list[str], dict]:
    """Once-per-run checks after the measured loop."""
    net64 = model.cast(net, np.float64)
    problems = checks.check_golden(net64)
    fd_problems, fd_err = checks.check_fd(net64)
    problems += fd_problems
    flips = loop.check_f64(net64)
    return problems, {"fd_rel_err": fd_err, "f64_flip_count": flips}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metric_names(preset: model.Preset) -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    ns, nt = len(preset.widths), len(preset.transitions)
    out = [(f"pfe.stem.{d}_ms", "ms") for d in ("fwd", "bwd")]
    for s in range(1, ns + 1):
        out += [(f"gfc.s{s}.{ph}.{d}_ms", "ms") for ph in spans.PHASES for d in ("fwd", "bwd")]
    for s in range(1, ns + 1):
        out += [(f"gfc.s{s}.gmac_per_s", "GMAC/s"), (f"gfc.s{s}.empty_clusters", "count"),
                (f"gfc.s{s}.act_bytes", "bytes")]
    out += [(f"icp.t{k}.{d}_ms", "ms") for k in range(1, nt + 1) for d in ("fwd", "bwd")]
    out += [(f"icp.t{k}.empty_clusters", "count") for k in range(1, nt + 1)
            if preset.transitions[k - 1] == "icp"]
    out += [(f"icp.t{k}.out_bytes", "bytes") for k in range(1, nt + 1)]
    out += [(f"head.{d}_ms", "ms") for d in ("fwd", "bwd")]
    out += [(f"tensor.{op}.{d}_ms", "ms") for op in spans.TENSOR_OPS for d in ("fwd", "bwd")]
    out += [("interpret.rf_ms", "ms"), ("interpret.maps_per_s", "1/s"),
            ("interpret.kmeans_ms", "ms"), ("interpret.render_ms", "ms"),
            ("interpret.write_trace_ms", "ms"), ("interpret.read_trace_ms", "ms"),
            ("interpret.trace_m_mismatch", "count")]
    out += [("container.ckpt_write_ms", "ms"), ("container.ckpt_read_ms", "ms"),
            ("container.ckpt_bytes", "bytes"), ("container.ckpt_mismatch", "count"),
            ("container.trace_bytes", "bytes"), ("trace.overhead_frac", "ratio")]
    return out


def median_ms(steps: list[dict], key: str) -> float:
    return 1000.0 * statistics.median(s.get(key, 0.0) for s in steps)


def empty_clusters(labels: np.ndarray, m: int) -> float:
    """Clusters out of ``m`` that no pixel joins, mean over the leading axes
    of ``labels`` (images, heads)."""
    rows = labels.reshape(-1, labels.shape[-1])
    return float(np.mean([m - np.unique(r).size for r in rows]))


def layer_metrics(net: model.Net, steps: list[dict], explain_steps: list[dict],
                  ckpt_steps: list[dict], first: dict, extra: dict) -> dict[str, float]:
    preset = net.preset
    vals: dict[str, float] = {}
    for key in ("pfe.stem", "head") + tuple(f"tensor.{op}" for op in spans.TENSOR_OPS) \
            + tuple(f"icp.t{k}" for k in range(1, len(net.transitions) + 1)):
        for d in ("fwd", "bwd"):
            vals[f"{key}.{d}_ms"] = median_ms(steps, f"{key}.{d}")
    rec = first["rec"]
    for s, (blocks, out) in enumerate(zip(net.stages, rec.stage_outs), start=1):
        for ph in spans.PHASES:
            for d in ("fwd", "bwd"):
                vals[f"gfc.s{s}.{ph}.{d}_ms"] = median_ms(steps, f"gfc.s{s}.{ph}.{d}")
        fwd_s = sum(vals[f"gfc.s{s}.{ph}.fwd_ms"] for ph in spans.PHASES) / 1000.0
        n = out.shape[1] * out.shape[2]
        macs = sum(gfc.block_macs(n, p.grid_hw[0] * p.grid_hw[1], p.d, p.dp, p.heads,
                                  p.flags, owns_assignment=p.owns_assignment) for p in blocks)
        vals[f"gfc.s{s}.gmac_per_s"] = macs * out.shape[0] / fwd_s / 1e9
        a = rec.states[s - 1].assignment
        vals[f"gfc.s{s}.empty_clusters"] = empty_clusters(a.cols, a.m)
        vals[f"gfc.s{s}.act_bytes"] = float(out.nbytes)
    for k, (pool, out) in enumerate(zip(rec.pools, rec.trans_outs), start=1):
        if preset.transitions[k - 1] == "icp":
            vals[f"icp.t{k}.empty_clusters"] = empty_clusters(pool.owner, pool.m)
        vals[f"icp.t{k}.out_bytes"] = float(out.nbytes)
    rf_ms = median_ms(explain_steps, "interpret.cluster_receptive_field")
    n_maps = sum(st.heads * st.assignment.m for st in rec.states)
    vals.update({
        "interpret.rf_ms": rf_ms,
        "interpret.maps_per_s": n_maps / (rf_ms / 1000.0),
        "interpret.kmeans_ms": median_ms(explain_steps, "interpret.kmeans_merge"),
        "interpret.render_ms": median_ms(explain_steps, "interpret.render_overlay"),
        "interpret.write_trace_ms": median_ms(explain_steps, "interpret.write_trace"),
        "interpret.read_trace_ms": median_ms(explain_steps, "interpret.read_trace"),
        "container.ckpt_write_ms": median_ms(ckpt_steps, "container.write_container"),
        "container.ckpt_read_ms": median_ms(ckpt_steps, "container.read_container"),
    })
    vals.update(extra)
    return vals


def coverage(wl: Workload, steps: list[dict], step_s: list[float]) -> float:
    """Median layer span time per traced step over the median untraced step
    time: how much of the measured work the per-layer metrics see."""
    dirs = (".fwd", ".bwd") if wl.backward else (".fwd",)
    layers = ("pfe", "gfc", "icp", "head") + (("interpret",) if wl.explain else ())
    layer = [sum(v for k, v in s.items() if k.split(".")[0] in layers
                 and (k.startswith("interpret.") or k.endswith(dirs))) for s in steps]
    return statistics.median(layer) / statistics.median(step_s)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def environment(args, wl: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpus": os.cpu_count(),
            "preset": args.preset, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tail_percentile": wl.tail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", choices=sorted(model.PRESETS), default="small")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    preset = model.PRESETS[args.preset]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tmp = os.path.join(root, ".cluebench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.setup_only:
            print(setup(preset, wl.batch, tmp)[1])
            return 0
        return _run(args, argv, wl, preset, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:     # another run still uses it
            pass


def _run(args, argv: list[str], wl: Workload, preset: model.Preset, tmp: str) -> int:
    print("env " + json.dumps(environment(args, wl)), flush=True)
    net, dt, ckpt_mismatch, ckpt_bytes = setup(preset, wl.batch, tmp)
    setup_s = [dt] + ([] if args.trace else cold_setups(argv))

    loop = Loop(wl, net, args.seed, tmp)
    if not args.trace:
        loop.run(args.seconds)
        rss = peak_rss_mb()
    else:
        tracer, ckpt_steps = spans.Tracer(net), []
        with tracer:
            for _ in range(SETUPS):
                model.checkpoint_roundtrip(net, os.path.join(tmp, "ckpt.clue"))
                ckpt_steps.append(tracer.take())
        loop.run(args.seconds, tracer)
        explain_steps = loop.layer_steps
        if not wl.explain:
            explain_steps = []
            x0 = inputs(preset, args.seed, 0, 1)[0][0]
            with tracer:
                for _ in range(EXPLAIN_PASSES):
                    ex = explain(net, x0, tmp)
                    explain_steps.append(tracer.take())
            _, loop.trace_m_mismatch = checks.check_explain(ex, os.path.join(tmp, "overlay.ppm"))

    problems, info = run_checks(net, loop)
    if args.trace:
        if not traced_outputs_match(net, tracer, *inputs(preset, args.seed, 0, wl.batch)):
            problems.append("traced logits or gradients differ from untraced ones")
        trace_bytes = os.path.getsize(os.path.join(tmp, "trace.clue"))
        extra = {"interpret.trace_m_mismatch": float(loop.trace_m_mismatch),
                 "container.ckpt_bytes": float(ckpt_bytes),
                 "container.ckpt_mismatch": float(ckpt_mismatch),
                 "container.trace_bytes": float(trace_bytes),
                 "trace.overhead_frac": (statistics.median(loop.traced_s)
                                         / statistics.median(loop.step_s) - 1.0)}
        vals = layer_metrics(net, loop.layer_steps, explain_steps, ckpt_steps, loop.first, extra)
        info["layer_coverage"] = coverage(wl, loop.layer_steps, loop.step_s)
        if not info["layer_coverage"] >= COVERAGE_FLOOR:
            problems.append(f"layer spans cover {info['layer_coverage']:.3f} of the untraced "
                            f"step time, less than {COVERAGE_FLOOR}")
        metrics = {name: {"value": vals[name], "unit": unit}
                   for name, unit in layer_metric_names(preset)}
    else:
        steps_ms = [1000.0 * s for s in loop.step_s]
        metrics = {
            "images_per_s": {"value": wl.batch * len(steps_ms) / sum(loop.step_s), "unit": "1/s"},
            "step_ms_p50": {"value": statistics.median(steps_ms), "unit": "ms"},
            "step_ms_tail": {"value": float(np.percentile(steps_ms, wl.tail)), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "ok_rate": {"value": 1.0 - loop.failed / loop.attempted, "unit": "ratio"},
        }
        info["tail"] = f"p{wl.tail} of {len(steps_ms)} steps"

    problems = loop.problems + problems
    info.update({"steps": loop.attempted, "setup_s_all": setup_s, "problems": problems[:20]})
    print("info " + json.dumps(info), flush=True)
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
