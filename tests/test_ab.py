"""tools/ab.py's summary of parent/change pairs, on synthetic run records.

These tests run no benchmark: they check the sign test and its Holm
adjustment, the quartiles, the verdicts and the keys of one metric's
summary, and how one run's last output line is read, from a stub
``cluebench/run.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def pairs_of(parent, change, metric="step_ms_p50"):
    return [{"seed": i, "parent": {metric: a}, "change": {metric: c}}
            for i, (a, c) in enumerate(zip(parent, change))]


def test_sign_test_matches_the_binomial_tails(ab):
    assert ab.sign_test_p(9, 1) == pytest.approx(2 * 11 / 1024)
    assert ab.sign_test_p(10, 0) == pytest.approx(2 / 1024)
    assert ab.sign_test_p(5, 5) == 1.0 and ab.sign_test_p(0, 0) == 1.0
    assert ab.sign_test_p(1, 9) == ab.sign_test_p(9, 1)


@pytest.mark.parametrize(("better", "verdict"), [("lower", "better"), ("higher", "worse")])
def test_nine_of_ten_pairs_decide_the_verdict_by_the_metrics_direction(ab, better, verdict):
    parent = [100.0 + i for i in range(10)]
    change = [a - 5.0 for a in parent[:9]] + [parent[9] + 1.0]
    s = ab.summarise(pairs_of(parent, change), {"step_ms_p50": better})["step_ms_p50"]
    assert s["verdict"] == verdict and s["p"] == s["p_holm"] < ab.ALPHA      # a family of one
    assert (s["wins"], s["losses"]) == ((9, 1) if better == "lower" else (1, 9))


def test_one_of_six_metrics_winning_nine_pairs_is_unresolved(ab):
    """The verdict is family-wise: Holm over the six metrics of one call that
    move puts the lone 9-of-10 metric's p = 0.021 at 6 * 0.021 > ALPHA; a
    seventh metric tied in every pair does not widen the family."""
    names = ["step_ms_p50", "step_ms_tail", "images_per_s", "setup_s", "peak_rss_mb", "train_ms", "ok_rate"]
    parent = [100.0 + i for i in range(10)]
    change = [a - 5.0 for a in parent[:9]] + [parent[9] + 1.0]
    moved = {m: [a + (-1) ** i for i, a in enumerate(parent)] for m in names[1:6]}    # 5 wins, 5 losses
    pairs = [{"seed": i, "parent": {m: a for m in names},
              "change": {"step_ms_p50": c, "ok_rate": a, **{m: v[i] for m, v in moved.items()}}}
             for i, (a, c) in enumerate(zip(parent, change))]
    out = ab.summarise(pairs, {m: "lower" for m in names})
    s = out["step_ms_p50"]
    assert (s["wins"], s["losses"]) == (9, 1) and s["p"] < ab.ALPHA
    assert s["p_holm"] == pytest.approx(6 * s["p"]) and s["verdict"] == "unresolved"
    assert out["ok_rate"]["p"] == out["ok_rate"]["p_holm"] == 1.0
    assert {o["verdict"] for o in out.values()} == {"unresolved"}


def test_holm_steps_down_and_stays_monotone(ab):
    assert ab.holm({"a": 0.01, "b": 0.04, "c": 0.03}) == pytest.approx({"a": 0.03, "b": 0.06, "c": 0.06})
    assert ab.holm({"a": 0.5, "b": 0.6}) == {"a": 1.0, "b": 1.0}
    assert ab.holm({}) == {}


def test_ties_and_an_even_split_are_unresolved(ab):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    change = [1.0, 1.0, 1.0, 9.0, 9.0, 6.0]      # two ties, two each way
    s = ab.summarise(pairs_of(parent, change), {"step_ms_p50": "lower"})["step_ms_p50"]
    assert (s["wins"], s["losses"], s["verdict"]) == (2, 2, "unresolved")


def test_quartiles_ratios_and_the_iqr_flag(ab):
    parent = [10.0, 20.0, 30.0, 40.0, 50.0]
    change = [5.0, 10.0, 15.0, 20.0, 0.0]
    s = ab.summarise(pairs_of(parent, change), {"step_ms_p50": "lower"})["step_ms_p50"]
    assert s["parent"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
    assert s["change"] == {"median": 10.0, "q1": 5.0, "q3": 15.0}
    assert s["ratios"] == [0.5, 0.5, 0.5, 0.5, 0.0]
    assert not s["median_shift_exceeds_parent_iqr"]      # |10 - 30| is not more than 40 - 20
    s = ab.summarise(pairs_of(parent, [a - 21.0 for a in parent]), {"step_ms_p50": "lower"})
    assert s["step_ms_p50"]["median_shift_exceeds_parent_iqr"]
    zero = ab.summarise(pairs_of([0.0, 1.0], [1.0, 1.0]), {"step_ms_p50": "lower"})["step_ms_p50"]
    assert zero["ratios"] == [None, 1.0]


def test_only_metrics_both_sides_report_in_every_pair_are_summarised(ab):
    pairs = pairs_of([1.0, 2.0], [1.0, 2.0])
    pairs[1]["change"]["ok_rate"] = 1.0
    out = ab.summarise(pairs, {"step_ms_p50": "lower", "ok_rate": "higher", "setup_s": "lower"})
    assert list(out) == ["step_ms_p50"]
    assert set(out["step_ms_p50"]) == {"better", "parent", "change", "ratios", "wins", "losses",
                                       "p", "p_holm", "verdict", "median_shift_exceeds_parent_iqr"}
    json.dumps(out)                                      # the file is plain JSON


def test_no_pairs_summarise_no_metric(ab):
    """Every pair of a workload failed: the file still records pairs: 0."""
    assert ab.summarise([], {"step_ms_p50": "lower", "images_per_s": "higher"}) == {}


GOOD = {"correct": True, "metrics": {"step_ms_p50": {"value": 12.5}, "setup_s": {"value": 0.1}}}


@pytest.mark.parametrize(("last_line", "want"), [
    ("Traceback (most recent call last): no metrics", {}),
    (json.dumps({"correct": False}), {}),
    (json.dumps(GOOD), {"step_ms_p50": 12.5, "setup_s": 0.1}),
], ids=["not_json", "incorrect", "good"])
def test_run_side_reads_the_last_line_of_a_run(ab, tmp_path, last_line, want):
    (tmp_path / "cluebench").mkdir()
    (tmp_path / "cluebench" / "run.py").write_text(
        f"import sys\nassert sys.argv[1:3] == ['--workload', 'train_small']\n"
        f"print('warming up')\nprint({last_line!r})\n")
    assert ab.run_side(tmp_path, "train_small", 3, 1.0, 0) == want


def test_every_benchmark_metric_has_a_direction(ab):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = ab.metric_directions(bench)
    assert {m["name"] for m in bench["end_to_end"]} <= set(directions)
    assert set(directions.values()) == {"higher", "lower"}
