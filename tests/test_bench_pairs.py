"""``summarize`` of ``tools/bench_pairs.py``, the script that writes every
``BENCH_<PR>.json``, on synthetic pair records: the sign of ``worse_by`` for
higher-better and lower-better metrics, the win count, ``resolved`` by a
spread within the bound and by full separation, and the quartiles of a
single pair. Its ``main`` without ``--metric``, with ``run_bench`` stubbed:
no claim, and every workload still paired and judged."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "items_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "call_ms_p50", "better": "lower", "bound": 0.25}


def records(parent: list, change: list, spec=HIGHER) -> list:
    """Pair records as ``run_pairs`` writes them, one metric per side."""
    return [
        {"seed": k, "parent": {"metrics": {spec["name"]: {"value": p}}}, "change": {"metrics": {spec["name"]: {"value": c}}}}
        for k, (p, c) in enumerate(zip(parent, change))
    ]


def summary(parent: list, change: list, spec=HIGHER) -> dict:
    return bench_pairs.summarize(records(parent, change, spec), [spec])[spec["name"]]


@pytest.mark.parametrize(
    "spec, change, worse_by",
    [(HIGHER, 110.0, -0.1), (HIGHER, 90.0, 0.1), (LOWER, 90.0, -0.1), (LOWER, 110.0, 0.1)],
    ids=["higher_better_gain", "higher_better_loss", "lower_better_gain", "lower_better_loss"],
)
def test_worse_by_is_negative_when_the_change_is_better(spec, change, worse_by):
    assert summary([100.0] * 3, [change] * 3, spec)["worse_by"] == pytest.approx(worse_by)


def test_worse_by_is_relative_to_the_parent_median():
    entry = summary([100.0, 200.0, 300.0], [150.0, 250.0, 350.0], LOWER)
    assert entry["parent"]["median"] == 200.0 and entry["change"]["median"] == 250.0
    assert entry["worse_by"] == pytest.approx(0.25)


def test_change_wins_counts_the_pairs_the_change_leads():
    assert summary([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 4.0])["change_wins"] == "2/4"  # a tie is no win
    assert summary([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 4.0], LOWER)["change_wins"] == "1/4"


def test_resolved_by_a_spread_within_the_bound():
    entry = summary([100.0, 102.0, 98.0, 101.0, 99.0], [101.0, 99.0, 103.0, 97.0, 100.0])
    assert entry["spread"] <= entry["bound"] and entry["resolved"]


def test_resolved_by_full_separation_despite_a_wide_spread():
    parent, change = [10.0, 50.0, 90.0, 30.0], [100.0, 200.0, 400.0, 300.0]
    wide = summary(parent, change)
    assert wide["spread"] > wide["bound"] and wide["resolved"]
    overlapping = summary(parent, [85.0, 200.0, 400.0, 300.0])  # one run of the change below the parent's best
    assert overlapping["spread"] > overlapping["bound"] and not overlapping["resolved"]
    assert summary(change, parent, LOWER)["resolved"]  # lower-better: every change run below every parent run


def test_one_pair_reads_its_value_as_every_quartile():
    entry = summary([120.0], [100.0], LOWER)
    assert entry["parent"] == {"q1": 120.0, "median": 120.0, "q3": 120.0}
    assert entry["change"] == {"q1": 100.0, "median": 100.0, "q3": 100.0}
    assert entry["spread"] == 0.0 and entry["resolved"] and entry["change_wins"] == "1/1"


def test_without_a_metric_every_workload_gets_its_pairs_and_verdicts(monkeypatch, tmp_path, capsys):
    end_to_end = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []

    def run_bench(checkout, workload, seconds, trace, seed):
        runs.append((checkout, workload, trace, seed))
        value = 100.0 if checkout == "parent" else 101.0
        metrics = {spec["name"]: {"value": value} for spec in end_to_end}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}, {"python": "3"}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"abc123\n")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: "parent")
    monkeypatch.setattr(bench_pairs, "ROOT", _PATH.parent.parent)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--seconds", "1", "--workload", "quench_sweep",
            "--other", "cli_cold", "--seed", "7", "--change-note", "no claim", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    result = json.loads(out.read_text())
    assert result["claim"]["metric"] is None
    names = {spec["name"] for spec in end_to_end}
    for entry in (result["claim"], result["other_workloads"]["cli_cold"]):
        assert len(entry["pairs"]) == 2 and set(entry["summary"]) == names
    assert [(w, seed) for checkout, w, _, seed in runs if checkout == "parent"] == [
        ("quench_sweep", 7), ("quench_sweep", 8), ("cli_cold", 9), ("cli_cold", 10)]
    printed = capsys.readouterr().out
    assert "quench_sweep items_per_s: worse by -0.010" in printed
    assert "cli_cold call_ms_p50: worse by +0.010" in printed
