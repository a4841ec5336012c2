"""Alternating before/after pairs of ``bench/run.py``, written as ``BENCH_<PR>.json``.

Run from anywhere inside a checkout of the change:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 30 \\
        --workload discord_search --metric items_per_s --seed 2201 \\
        --change-note "what the change does" --out BENCH_22.json

The parent revision is exported with ``git archive`` into a fresh directory;
the change runs in this checkout. Pair k runs seed ``--seed + k`` on both
sides, the parent first in even pairs and the change first in odd ones, so a
drift of the host's speed falls on both sides alike. Each run's last stdout
line (the JSON verdict of ``bench/run.py``) is recorded as it is. ``--other``
adds further workloads, each run for the same ``--pairs`` pairs, and
``--traced S`` one traced (``--trace 1``) run of S seconds per side of the
claimed workload, for its per-layer metrics. ``--metric`` names the
end-to-end metric a change claims to improve; a change that claims no gain
leaves it out, the file records ``claim.metric`` as null, and every workload
still gets its pairs and verdicts.

Every workload gets a summary per end-to-end metric of ``BENCHMARK.json``:
the quartiles of each side, in how many pairs the change is better, how
much worse the change's median is than the parent's (relative, negative when
better), and the spread, the larger interquartile range of the two sides
over its median. A metric whose spread exceeds its bound is marked
unresolved, since its pairs cannot tell a change within the bound from
noise, unless every run of the change reads better than every run of the
parent.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> Path:
    """A fresh copy of the committed files of ``rev``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into


def run_bench(checkout: Path, workload: str, seconds: int, trace: int, seed: int) -> tuple:
    """One ``bench/run.py`` run; returns (verdict of its last line, env it printed)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}: {proc.stderr.strip()}")
    verdict = json.loads(lines[-1])
    env = next((json.loads(line.split("env ", 1)[1]) for line in lines if line.strip().startswith("env {")), {})
    env.pop("seed", None)  # the seed is recorded per pair
    return {k: verdict[k] for k in ("correct", "attempted", "failed", "metrics")}, env


def run_pairs(sides: dict, workload: str, pairs: int, seconds: int, seed: int) -> tuple:
    records, env = [], {}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        record = {"seed": seed + k, "first": order[0]}
        for side in order:
            record[side], env = run_bench(sides[side], workload, seconds, 0, seed + k)
            print(f"pair {k + 1}/{pairs} {workload} {side}: correct={record[side]['correct']} "
                  + " ".join(f"{name}={m['value']:.6g}" for name, m in record[side]["metrics"].items()),
                  file=sys.stderr, flush=True)
        records.append(record)
    return records, env


def summarize(records: list, end_to_end: list) -> dict:
    """Per metric: quartiles of each side (``statistics.quantiles``, exclusive
    method), the pairs in which the change is better, the change's relative
    loss against the parent's median, and the spread against the bound."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in records] for side in ("parent", "change")}
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        entry = {}
        for side, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            entry[side] = {"q1": q1, "median": median, "q3": q3}
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        spread = max((e["q3"] - e["q1"]) / abs(e["median"]) for e in (entry["parent"], entry["change"]))
        if higher:
            separated = min(values["change"]) > max(values["parent"])
        else:
            separated = max(values["change"]) < min(values["parent"])
        entry.update(
            change_wins=f"{wins}/{len(records)}",
            worse_by=((parent - change) if higher else (change - parent)) / abs(parent),
            spread=spread,
            bound=spec["bound"],
            resolved=spread <= spec["bound"] or separated,
        )
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", default="discord_search", help="workload of the claim")
    parser.add_argument("--metric", help="end-to-end metric the change claims to improve (none: no claim)")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--other", nargs="*", default=[], help="further workloads to pair, --pairs pairs each")
    parser.add_argument("--traced", type=int, default=0, metavar="S", help="seconds of one traced run per side")
    parser.add_argument("--change-note", required=True, help="one line saying what the change does")
    parser.add_argument("--out", required=True, type=Path, help="output file, e.g. BENCH_22.json")
    parser.add_argument("--workdir", type=Path, default=None, help="where to export the parent (default: a temp dir)")
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.metric is not None and args.metric not in {spec["name"] for spec in end_to_end}:
        parser.error(f"--metric must be an end-to-end metric of BENCHMARK.json; got {args.metric}")
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        sides = {"parent": export(parent_sha, Path(tmp) / "parent"), "change": ROOT}
        records, env = run_pairs(sides, args.workload, args.pairs, args.seconds, args.seed)
        claim = {"workload": args.workload, "metric": args.metric, "seconds": args.seconds,
                 "trace": 0, "pairs": records, "summary": summarize(records, end_to_end)}
        other = {}
        for k, workload in enumerate(args.other, start=1):
            pairs = run_pairs(sides, workload, args.pairs, args.seconds, args.seed + k * args.pairs)[0]
            other[workload] = {"pairs": pairs, "summary": summarize(pairs, end_to_end)}
        if args.traced:
            traced = {"workload": args.workload, "seconds": args.traced, "trace": 1, "seed": args.seed}
            for side, checkout in sides.items():
                traced[side] = run_bench(checkout, args.workload, args.traced, 1, args.seed)[0]
    result = {
        "change": args.change_note,
        "command": "python3 bench/run.py --workload WORKLOAD --seconds S --trace T --seed SEED, "
                   "the parent in a fresh git archive export, the change in its checkout",
        "parent": parent_sha,
        "claim": claim,
    }
    if other:
        result["other_workloads"] = {"seconds": args.seconds, "trace": 0, **other}
    if args.traced:
        result["traced"] = traced
    result["env"] = env
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    if args.metric is not None:
        summary = claim["summary"][args.metric]
        print(f"{args.metric}: parent median {summary['parent']['median']:.6g} "
              f"(IQR {summary['parent']['q3'] - summary['parent']['q1']:.6g}), change median "
              f"{summary['change']['median']:.6g}; change better in {summary['change_wins']} pairs")
    summaries = {args.workload: claim["summary"], **{w: o["summary"] for w, o in other.items()}}
    for workload, metrics in summaries.items():
        for name, entry in metrics.items():
            verdict = "unresolved" if not entry["resolved"] else "worse" if entry["worse_by"] > entry["bound"] else "ok"
            print(f"{workload} {name}: worse by {entry['worse_by']:+.3f}, spread {entry['spread']:.3f} "
                  f"(bound {entry['bound']}): {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
