"""Alternated parent/change pairs of the benchmark, summarised per metric.

    python3 tools/ab.py --parent 529110c --workload train_small --pairs 10 --seconds 30

Both sides are extracted from git with ``git archive`` into a temporary
directory (so the runs use committed files only, and the repository's
worktree list is not touched), and ``cluebench/run.py`` runs in each as a
subprocess, one run at a time. Pair i uses seed ``--seed0 + i``; the side
that runs first alternates from pair to pair. The summary goes to
``BENCH_<workload>.json`` at the repository root: the two commits, the
pair count, and per metric both sides' median and quartiles, the
change/parent ratio of every pair, the two-sided sign test's ``p`` and its
Holm adjustment ``p_holm`` over the metrics summarised together (one
workload's metrics, less any tied in every pair), and a verdict (better, worse or unresolved at
``ALPHA``) taken on ``p_holm``, so that one run's many tests do not read a
chance move as a result. A ``--trace 1`` run adds the per-layer metrics
under ``layers`` to the file of the same two commits; its family is every
metric of that run, end to end and per layer.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: family-wise level of the verdicts: 9 of 10 pairs moving the same way gives
#: p = 0.021, enough for a metric summarised alone, not for the smallest p of three
ALPHA = 0.05


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses`` (ties left out)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def holm(ps: dict[str, float]) -> dict[str, float]:
    """Holm's step-down adjustment of the family ``ps`` (name: p): the i-th
    smallest p times (k - i + 1), kept monotone and at most 1."""
    out, running = {}, 0.0
    for i, (name, p) in enumerate(sorted(ps.items(), key=lambda kv: kv[1])):
        running = max(running, min(1.0, (len(ps) - i) * p))
        out[name] = running
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of ``pairs``, each ``{"seed", "parent", "change"}``
    with the two sides' ``{metric: value}``; ``better`` maps a metric to
    "higher" or "lower". Only metrics that both sides report in every pair
    and that ``better`` names are summarised; with no pairs, none is. The
    verdicts are taken on ``p_holm``, over the metrics summarised here that
    moved in at least one pair: a metric tied in every pair (p = 1) cannot
    be decided, so it does not widen the family."""
    names = [m for m in better if pairs and all(m in p["parent"] and m in p["change"] for p in pairs)]
    out = {}
    for m in names:
        par = [p["parent"][m] for p in pairs]
        chg = [p["change"][m] for p in pairs]
        sign = 1.0 if better[m] == "higher" else -1.0
        wins = sum(sign * (c - a) > 0 for a, c in zip(par, chg))
        losses = sum(sign * (c - a) < 0 for a, c in zip(par, chg))
        a, c = quartiles(par), quartiles(chg)
        out[m] = {"better": better[m], "parent": a, "change": c,
                  "ratios": [c_ / a_ if a_ else None for a_, c_ in zip(par, chg)],
                  "wins": wins, "losses": losses, "p": sign_test_p(wins, losses),
                  "median_shift_exceeds_parent_iqr": abs(c["median"] - a["median"]) > a["q3"] - a["q1"]}
    adjusted = holm({m: s["p"] for m, s in out.items() if s["wins"] + s["losses"]})
    for m, s in out.items():
        s["p_holm"] = adjusted.get(m, s["p"])
        s["verdict"] = "unresolved" if s["p_holm"] > ALPHA else ("better" if s["wins"] > s["losses"] else "worse")
    return out


def metric_directions(bench: dict) -> dict[str, str]:
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}


def run_side(tree: pathlib.Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``: its metric values, or {} if it failed a
    check or printed none."""
    cmd = [sys.executable, "cluebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {}
    return {k: v["value"] for k, v in res["metrics"].items()} if res["correct"] else {}


def extract(rev: str, into: pathlib.Path) -> str:
    """Write ``rev``'s committed files into ``into``; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    better = metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: pathlib.Path(tmp, side) for side in ("parent", "change")}
        commits = {side: extract(getattr(args, side), trees[side]) for side in trees}
        for wl in args.workload:
            pairs, failed = [], 0
            for i in range(args.pairs):
                seed, sides = args.seed0 + i, ["parent", "change"][::1 if i % 2 == 0 else -1]
                pair = {"seed": seed, **{s: run_side(trees[s], wl, seed, args.seconds, args.trace)
                                          for s in sides}}
                ok = bool(pair["parent"] and pair["change"])
                if ok:
                    pairs.append(pair)
                else:
                    failed += 1
                print(f"{wl} pair {i + 1}/{args.pairs} seed {seed}: "
                      + ("ok" if ok else "a run failed its checks or printed no metrics"),
                      file=sys.stderr, flush=True)
            doc = {"workload": wl, **commits, "pairs": len(pairs), "failed_pairs": failed,
                   "seconds": args.seconds, "trace": args.trace, "seeds": [p["seed"] for p in pairs],
                   "alpha": ALPHA, "metrics": summarise(pairs, better)}
            path = ROOT / f"BENCH_{wl}.json"
            if args.trace:
                old = json.loads(path.read_text()) if path.exists() else {}
                same = all(old.get(k) == v for k, v in commits.items())
                doc = {**(old if same else {k: doc[k] for k in ("workload", *commits)}), "layers": doc}
            path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
