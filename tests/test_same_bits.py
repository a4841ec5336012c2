"""``tools/same_bits.py``, the script that says which outputs a change moves:
its distances in units in the last place, the per-family comparison and
report, the CLI cases it reads from ``tests/test_cli.py``, the in-process
part of its manifest on a few inputs, and its ``main`` with both sides
stubbed."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_bits.py"
_SPEC = importlib.util.spec_from_file_location("same_bits", _PATH)
same_bits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bits)


@pytest.mark.parametrize(
    "a, b, ulp, rel",
    [
        (1.0, 1.0, 0, 0.0),
        (1.0, math.nextafter(1.0, 2.0), 1, 2.0**-52),
        (0.0, -0.0, 0, 0.0),
        (-1.0, math.nextafter(-1.0, 0.0), 1, 2.0**-53),
        (math.nan, math.nan, 0, 0.0),
        (53, 57, 4, 4 / 57),
        ("x 0.25, y 1", "x 0.25, y 1", 0, 0.0),
        ("x 0.25, y 1", "x 0.5, y 1", 2**52, 0.5),
        ('"evaluations": 57}', '"evaluations": 53}', 4, 4 / 57),
    ],
    ids=["equal", "one_ulp", "signed_zeros", "negative", "nans", "integers", "same_text", "text_number", "text_integer"],
)
def test_distance(a, b, ulp, rel):
    assert same_bits.distance(a, b) == (ulp, pytest.approx(rel))


@pytest.mark.parametrize(
    "a, b",
    [(1.0, math.nan), ("x 1", "y 1"), ("x 1", "x 1 2"), (1.0, None), ("1", 1.0)],
    ids=["nan_and_number", "text_differs", "more_numbers", "missing", "text_and_number"],
)
def test_distance_is_infinite_between_outputs_of_different_shape(a, b):
    assert same_bits.distance(a, b) == (math.inf, math.inf)


def test_words_holding_inf_or_nan_are_not_numbers():
    assert same_bits.NUMBER.findall('{"mutual_info": 0.5, "nanny": inf, "x": -inf}') == ["0.5", "inf", "-inf"]


def test_compare_counts_moved_outputs_and_names_the_first():
    parent = {"f": [["a", 1.0], ["b", 2.0], ["c", 3.0]], "g": [["a", "text 1"]], "h": [["a", 1.0]]}
    change = {"f": [["a", 1.0], ["b", math.nextafter(2.0, 3.0)], ["c", 3.5]], "g": [["a", "text 1"]], "i": [["a", 1.0]]}
    report = same_bits.compare(parent, change)
    assert report["g"] == {"outputs": 1, "moved": 0}
    f = report["f"]
    assert (f["outputs"], f["moved"], f["first"], f["parent"]) == (3, 2, "b", 2.0)
    assert f["max_ulp"] == 2**50 and f["max_rel"] == pytest.approx(0.5 / 3.5)
    assert report["h"]["moved"] == report["i"]["moved"] == 1  # a family on one side only moved entirely
    assert report["h"]["max_ulp"] == math.inf


def test_render_says_identical_or_moved():
    report = same_bits.compare({"f": [["a", 1.0]], "g": [["a", 1.0]]}, {"f": [["a", 1.0]], "g": [["a", 1.5]]})
    assert same_bits.render(report).splitlines() == [
        "f: identical (1)",
        "g: moved 1 of 1, max 2.2518e+15 ulp, max relative 0.333; first at a: 1.0 -> 1.5",
    ]


def test_cli_cases_are_those_of_test_output_bytes_and_test_error_bytes():
    files, cases = same_bits._cli_cases(_PATH.parent.parent / "tests" / "test_cli.py")
    assert set(files) == {"rho.json", "qubit.json", "huge_rho.json", "huge_cov.json", "broken.json", "truncated.json",
                          "no_matrix.json", "three_element_pair.json", "string_pair.json", "string_dims.json",
                          "non_square.json", "ragged_cov.json", "string_cov.json", "cov.json"}
    assert len(cases) == 15 + 16 and ["discord", "--state", "rho.json"] in cases
    assert ["gaussian", "--cov", "huge_cov.json"] in cases


def test_manifest_runs_in_process(monkeypatch):
    """The manifest's families on a few inputs, against the qcorr the tests import."""
    import qcorr

    monkeypatch.setattr(same_bits, "STATE_SEEDS", range(2))
    monkeypatch.setattr(same_bits, "COVARIANCE_SEEDS", range(2))
    monkeypatch.setattr(same_bits, "SWEEP_POINTS", 3)
    monkeypatch.setattr(same_bits, "REPORT_TEMPERATURES", [0.5])
    families = {}
    same_bits._two_qubit(qcorr, families)
    same_bits._gaussian(qcorr, families)
    same_bits._quench(qcorr, families)
    same_bits._cli(importlib.import_module("qcorr.cli"), families, _PATH.parent.parent / "tests" / "test_cli.py")
    assert len(families["discord.classical_corr"]) == len(families["discord_swapped.evaluations"]) == 8
    assert len(families["gaussian_discord"]) == len(families["minimize_gaussian_measurement"]) == 4
    assert len(families["sweep_temperature.gaussian_discord"]) == 4 * 2 * 3
    assert len(families["report_at.omega_excess"]) == 4
    discord_case = dict(map(tuple, families["cli"]))["discord --state rho.json"]
    assert discord_case.startswith("exit 0\n{\"mutual_info\": ")
    assert dict(map(tuple, families["cli"]))["qstate --state non_square.json"] == (
        "exit 1\nqcorr: error: matrix length 3 is not a perfect square\n")
    assert not any(isinstance(value, str) for values in families.values() if values is not families["cli"]
                   for _, value in values)  # no call raised
    json.loads(json.dumps(families))  # what a child writes, the parent reads


def test_main_reports_each_family(monkeypatch, tmp_path, capsys):
    sides = {}

    def run_side(tree, out):
        sides[tree] = out
        if tree == "parent":
            return {"discord.evaluations": [["s", 57]], "demos": [["01.py", "exit 0\nH = 1.0\n"]]}
        return {"discord.evaluations": [["s", 53]], "demos": [["01.py", "exit 0\nH = 1.0\n"]]}

    bench_pairs = same_bits._bench_pairs()
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"abc123\n")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: "parent")
    monkeypatch.setattr(same_bits, "_bench_pairs", lambda: bench_pairs)
    monkeypatch.setattr(same_bits, "_run_side", run_side)
    out = tmp_path / "report.json"
    assert same_bits.main(["--parent", "HEAD", "--json", str(out)]) == 0
    assert set(sides) == {"parent", same_bits.ROOT}
    printed = capsys.readouterr().out.splitlines()
    assert printed[1:] == ["demos: identical (1)", "discord.evaluations: moved 1 of 1, max 4 ulp, "
                           "max relative 0.0702; first at s: 57 -> 53"]
    report = json.loads(out.read_text())
    assert report["parent"] == "abc123" and report["families"]["discord.evaluations"]["moved"] == 1


def test_a_cli_call_that_raises_is_recorded_as_its_exception(tmp_path):
    """A parent whose CLI lets an exception escape still yields a comparable text."""
    test_file = tmp_path / "test_cli.py"
    test_file.write_text("FIXED_FILES = {'a.json': '[1'}\nOUTPUT_BYTES = []\nERROR_BYTES = [(('qstate', '--state', 'a.json'), '')]\n")

    class Cli:
        @staticmethod
        def main(argv):
            raise OverflowError("int too large to convert to float")

    families = {}
    same_bits._cli(Cli, families, test_file)
    assert families["cli"] == [["qstate --state a.json", "OverflowError: int too large to convert to float"]]
