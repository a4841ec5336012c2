"""Which outputs a change moves, and by how much, against a parent revision.

Run from anywhere inside a checkout of the change:

    python3 tools/same_bits.py --parent HEAD~1

The parent revision is exported with ``git archive`` (``bench_pairs.export``)
into a fresh directory. This script's own manifest then runs once against each
tree's ``src`` in a child interpreter, so both sides compute the same inputs:

- ``discord`` and ``discord_swapped`` on ``random_density_matrix`` states of
  ranks 1-4, one family per result field;
- ``gaussian_discord`` and ``minimize_gaussian_measurement`` on
  ``random_covariance`` matrices, measuring either mode;
- ``sweep_temperature`` at four couplings and two evolution times, and
  ``report_at`` on a grid of temperatures, one family per report column;
- every CLI case of ``test_output_bytes`` and ``test_error_bytes`` in
  ``tests/test_cli.py`` (read from this checkout, so both trees run the same
  argument lists), a call that raises recorded as its exception;
- the stdout of every demo of each tree, and the CSV that demo 06 writes,
  each demo run from a temporary copy so that no checkout is written to.

Each family prints as ``identical``, or as ``moved`` with the number of
outputs that moved, the largest distance in units in the last place and the
largest relative distance (over the numbers of a text, when both texts have
the same shape), and the first input that moved. Exit status 0 either way;
``--json FILE`` also writes the report. Standard library and qcorr only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RANKS, STATE_SEEDS = (1, 2, 3, 4), range(500)
COVARIANCE_SEEDS = range(300)
COUPLINGS, EVOLUTION_TIMES, SWEEP_POINTS = (0.5, 1.0, 2.0, 3.0), (1.0, 2.5), 400
REPORT_TEMPERATURES = [0.05 * 1.25**k for k in range(30)]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b")


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_cases(test_file: Path) -> tuple:
    """``(FIXED_FILES, [argv, ...])`` of ``test_output_bytes`` and ``test_error_bytes``, read as literals."""
    found = {}
    for node in ast.parse(test_file.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("FIXED_FILES", "OUTPUT_BYTES", "ERROR_BYTES"):
                found[node.targets[0].id] = ast.literal_eval(node.value)
    return found["FIXED_FILES"], [list(argv) for argv, _ in found["OUTPUT_BYTES"] + found["ERROR_BYTES"]]


# -- the manifest, run in a child interpreter against one tree ---------------

def _record(families: dict, family: str, label: str, compute):
    """Appends ``[label, value]`` to the family of each field of ``compute()``, called at once; an
    exception becomes its text."""
    try:
        fields = compute()
    except Exception as exc:  # a function missing or raising on one side is a moved output
        fields = {"": f"{type(exc).__name__}: {exc}"}
    for name, value in fields.items():
        families.setdefault(f"{family}.{name}" if name else family, []).append([label, value])


def _two_qubit(qcorr, families: dict):
    for rank in RANKS:
        for seed in STATE_SEEDS:
            rho = qcorr.random_density_matrix((2, 2), rank, seed)
            for search in ("discord", "discord_swapped"):
                def fields():
                    r = getattr(qcorr, search)(rho)
                    return {"mutual_info": r.mutual_info, "classical_corr": r.classical_corr, "discord": r.discord,
                            "theta": r.optimal_basis.theta, "phi": r.optimal_basis.phi,
                            "evaluations": r.trace.evaluations, "converged": r.trace.converged}

                _record(families, search, f"rank {rank} seed {seed}", fields)


def _gaussian(qcorr, families: dict):
    for seed in COVARIANCE_SEEDS:
        sigma = qcorr.random_covariance(seed)
        for mode in (1, 2):
            for name in ("gaussian_discord", "minimize_gaussian_measurement"):
                _record(families, name, f"seed {seed} mode {mode}", lambda: {"": getattr(qcorr, name)(sigma, mode)})


def _quench(qcorr, families: dict):
    for lambda0 in COUPLINGS:
        params = qcorr.QuenchParams(lambda0=lambda0)
        for t in EVOLUTION_TIMES:
            reports = qcorr.sweep_temperature(params, 0.1, 5.0, SWEEP_POINTS, t)
            for k, report in enumerate(reports):
                _record(families, "sweep_temperature", f"lambda0 {lambda0} time {t} row {k}", report._asdict)
        for temperature in REPORT_TEMPERATURES:
            _record(families, "report_at", f"lambda0 {lambda0} T {temperature!r}",
                    lambda: qcorr.report_at(qcorr.QuenchParams(lambda0=lambda0, beta=1.0 / temperature))._asdict())


def _cli(cli, families: dict, test_file: Path):
    files, cases = _cli_cases(test_file)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        out_file = Path(tmp, "out.csv")
        for argv in cases:
            def text():
                out_file.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([str(Path(tmp, a)) if a.endswith((".json", ".csv")) else a for a in argv])
                return {"": f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}{out_file.read_text() if out_file.exists() else ''}"}

            _record(families, "cli", " ".join(argv), text)


def _demos(tree: Path, families: dict):
    with tempfile.TemporaryDirectory() as tmp:
        for demo in sorted((tree / "demos").glob("0*.py")):
            copy = Path(shutil.copy(demo, tmp))
            proc = subprocess.run([sys.executable, str(copy)], cwd=tmp, capture_output=True, text=True, env=os.environ)
            _record(families, "demos", demo.name, lambda: {"": f"exit {proc.returncode}\n{proc.stdout}"})
        csv = Path(tmp, "quench_sweep.csv")
        _record(families, "demos", "quench_sweep.csv", lambda: {"": csv.read_text() if csv.exists() else ""})


def emit(tree: Path, test_file: Path) -> dict:
    """Every family of the manifest, computed with the ``qcorr`` this interpreter imports."""
    import qcorr

    families = {}
    _two_qubit(qcorr, families)
    _gaussian(qcorr, families)
    _quench(qcorr, families)
    _cli(importlib.import_module("qcorr.cli"), families, test_file)
    _demos(tree, families)
    return {"qcorr": qcorr.__file__, "families": families}


# -- comparison --------------------------------------------------------------

def _ordered(x: float) -> int:
    """The float's bit pattern as an integer ordered like the floats, +0.0 and -0.0 both 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _number(token: str):
    return int(token) if token.lstrip("+-").isdigit() else float(token)


def distance(a, b) -> tuple:
    """(units in the last place, relative distance) between two outputs: numbers
    directly, texts over their numbers when the texts agree elsewhere. Two
    integers (counts, flags, integer tokens of a text) are apart by their
    difference, an integer's last place being 1."""
    if isinstance(a, str) and isinstance(b, str):
        numbers_a, numbers_b = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(numbers_a) != len(numbers_b):
            return math.inf, math.inf
        pairs = [(_number(x), _number(y)) for x, y in zip(numbers_a, numbers_b) if x != y]
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        pairs = [(a, b)]
    else:
        return math.inf, math.inf
    ulp = rel = 0
    for x, y in pairs:
        if isinstance(x, int) and isinstance(y, int):
            ulp = max(ulp, abs(x - y))
        elif math.isnan(x) or math.isnan(y):
            if not (math.isnan(x) and math.isnan(y)):
                return math.inf, math.inf
            continue
        else:
            ulp = max(ulp, abs(_ordered(float(x)) - _ordered(float(y))))
        rel = max(rel, abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0)
    return ulp, rel


def compare(parent: dict, change: dict) -> dict:
    """Per family: ``{"outputs", "moved"}``, and for a moved family the largest
    distances and its first moved input with both values."""
    report = {}
    for family in sorted(set(parent) | set(change)):
        old, new = dict(map(tuple, parent.get(family, []))), dict(map(tuple, change.get(family, [])))
        labels = list(dict.fromkeys([*old, *new]))  # in the parent's order, then the change's new inputs
        entry = {"outputs": len(labels), "moved": 0}
        for label in labels:
            if label in old and label in new and repr(old[label]) == repr(new[label]):
                continue
            ulp, rel = distance(old.get(label), new.get(label))
            if entry["moved"] == 0:
                entry.update(max_ulp=ulp, max_rel=rel, first=label, parent=old.get(label), change=new.get(label))
            entry["moved"] += 1
            entry["max_ulp"], entry["max_rel"] = max(entry["max_ulp"], ulp), max(entry["max_rel"], rel)
        report[family] = entry
    return report


def render(report: dict) -> str:
    lines = []
    for family, entry in report.items():
        if not entry["moved"]:
            lines.append(f"{family}: identical ({entry['outputs']})")
            continue
        first = entry["first"]
        shown = (f"{entry['parent']!r} -> {entry['change']!r}" if not isinstance(entry["parent"], str)
                 else "text differs")
        lines.append(f"{family}: moved {entry['moved']} of {entry['outputs']}, max {entry['max_ulp']:g} ulp, "
                     f"max relative {entry['max_rel']:.3g}; first at {first}: {shown}")
    return "\n".join(lines)


def _run_side(tree: Path, out: Path):
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(out), "--tree", str(tree)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(out.read_text())
    if not Path(result["qcorr"]).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"{tree} imported qcorr from {result['qcorr']}")
    return result["families"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare this checkout against")
    parser.add_argument("--json", type=Path, help="also write the report here")
    parser.add_argument("--workdir", type=Path, default=None, help="where to export the parent (default: a temp dir)")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)  # child: write one tree's families
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        args.emit.write_text(json.dumps(emit(args.tree, ROOT / "tests" / "test_cli.py")))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    bench_pairs = _bench_pairs()
    sha = bench_pairs.git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        parent_tree = bench_pairs.export(sha, Path(tmp) / "parent")
        parent = _run_side(parent_tree, Path(tmp) / "parent.json")
        change = _run_side(ROOT, Path(tmp) / "change.json")
    report = compare(parent, change)
    print(f"parent {sha}, change {ROOT}")
    print(render(report))
    if args.json is not None:
        args.json.write_text(json.dumps({"parent": sha, "families": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
