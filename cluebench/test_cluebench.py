"""The benchmark's own tests, on the `tiny` preset.

    python3 -m pytest -q cluebench
"""

import json
import math
import os
import time

import numpy as np
import pytest

from cluenet import gfc
from cluenet import tensor as T

from cluebench import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(capsys, workload, trace=0, seed=3):
    # a traced run takes the median over steps, so give it more than one
    seconds = 1 if trace else 0
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--preset", "tiny"])
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    return code, json.loads(lines[-1]), lines + err.splitlines()


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_one_step_passes_every_check(capsys, workload):
    code, res, lines = bench(capsys, workload)
    assert code == 0 and res["correct"], lines
    assert res["attempted"] == 1 and res["failed"] == 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == declared("end_to_end")
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in res["metrics"].values())
    env = json.loads(lines[0].removeprefix("env "))
    assert {"numpy", "blas", "blas_threads", "preset", "seed"} <= set(env)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(capsys, workload):
    code, res, lines = bench(capsys, workload, trace=1)
    assert code == 0 and res["correct"], lines
    names = [(k, v["unit"]) for k, v in res["metrics"].items()]
    assert names == run.layer_metric_names(run.model.TINY) == declared("per_layer")
    for name, m in res["metrics"].items():
        assert math.isfinite(m["value"]), name
        if name.endswith("_ms"):
            assert m["value"] > 0, name


def test_traced_counts_repeat_for_a_seed(capsys):
    counts = []
    for _ in range(2):
        _, res, _ = bench(capsys, "train_small", trace=1, seed=5)
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["container.ckpt_mismatch"] == 16  # 0-d tau_raw/alpha/beta come back as (1,)


def tanh_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x ** 3))
    y = 0.5 * x * (1.0 + t)

    def backward(dy):
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x * x)
        return dy * (0.5 * (1.0 + t) + 0.5 * x * dt)

    return y.astype(x.dtype, copy=False), backward


def drop_d_shared(fn):
    def forward(x, p, shared=None):
        y, state, back = fn(x, p, shared)
        if p.owns_assignment:
            return y, state, lambda dy, d_shared=None: back(dy)
        return y, state, back
    return forward


def float16_in_float32(fn):
    """A float32-only fault: float32 results are rounded through float16."""
    def faulty(*a, **k):
        y, back = fn(*a, **k)
        if y.dtype == np.float32:
            y = y.astype(np.float16).astype(np.float32)
        return y, back
    return faulty


@pytest.mark.parametrize("fault, check", [
    ("tanh_gelu", "golden"),
    ("drop_d_shared", "golden"),
    ("float16_softmax", "float32 vs float64"),
    ("float16_cosine_sim", "float32 vs float64"),
])
def test_planted_fault_fails_a_check(capsys, monkeypatch, fault, check):
    if fault == "tanh_gelu":
        monkeypatch.setattr(T, "gelu", tanh_gelu)
    elif fault == "drop_d_shared":
        monkeypatch.setattr(gfc, "gfc_block_forward", drop_d_shared(gfc.gfc_block_forward))
    else:
        op = fault.removeprefix("float16_")
        monkeypatch.setattr(T, op, float16_in_float32(getattr(T, op)))
    code, res, lines = bench(capsys, "train_small")
    assert code == 1 and not res["correct"]
    assert any(line.startswith("CHECK FAILED") and check in line for line in lines), lines


def test_untraced_work_fails_the_coverage_floor(capsys, monkeypatch):
    xent = run.model.xent

    def slow_xent(*a):
        time.sleep(0.05)
        return xent(*a)

    monkeypatch.setattr(run.model, "xent", slow_xent)
    code, res, lines = bench(capsys, "train_small", trace=1)
    assert code == 1 and not res["correct"]
    assert any(line.startswith("CHECK FAILED: layer spans cover") for line in lines), lines
