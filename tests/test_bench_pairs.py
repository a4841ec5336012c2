"""``summarize`` of ``tools/bench_pairs.py``, the script that writes every
``BENCH_<PR>.json``, on synthetic pair records: the sign of ``worse_by`` for
higher-better and lower-better metrics, the win count, ``resolved`` by a
spread within the bound and by full separation, and the quartiles of a
single pair."""

import importlib.util
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
