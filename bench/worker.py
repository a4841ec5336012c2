"""The measuring process of one benchmark run.

Started by ``run.py`` with the single-thread BLAS environment. It imports
``qcorr`` from the checkout's ``src``, builds the workload's inputs from the
seed and warms up, then prints ``READY`` (the parent times set-up up to that
line). In ``setup`` mode it stops there. In ``measure`` mode it runs whole
rounds of calls until ``--seconds`` have passed; in ``trace`` mode it runs
the workload's fixed number of rounds once untraced and once traced, so
counts repeat exactly for a seed. Outputs are checked after the timed
region, and the last stdout line is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_REPEATS = 3
Record = namedtuple("Record", "round index spec latency digest raised")


def run_pass(workload, seconds=None, rounds=None, recorder=None, first_id=0, calibrate=False):
    """Whole rounds in a closed loop: until ``seconds`` have passed, or for
    ``rounds`` rounds, timing ``workload.calibrate()`` after each round when
    ``calibrate`` is set. Keeps each spec's first output and a digest of
    every output, so memory does not grow with the run. Returns the call
    records, the first outputs, the elapsed time and the calibration times."""
    records, first, calibration = [], {}, []
    start = time.perf_counter()
    k = 0
    while True:
        for i, spec in enumerate(workload.round(k)):
            call_id = first_id + len(records)
            if recorder is not None:
                recorder.call_id = call_id
            t0 = time.perf_counter()
            try:
                output = workload.call(spec, call_id, traced=recorder is not None)
            except Exception as exc:  # a raising call is a failed item, checked below
                output = exc
            latency = time.perf_counter() - t0
            digest = hashlib.sha256(repr(workload.fingerprint(output)).encode()).digest()
            first.setdefault((k % len(workload.rounds), i), (spec, output, digest))
            records.append(Record(k, i, spec, latency, digest, isinstance(output, Exception)))
        for _ in range(workload.calibration_reps if calibrate else 0):
            t0 = time.perf_counter()
            workload.calibrate()
            calibration.append(time.perf_counter() - t0)
        k += 1
        elapsed = time.perf_counter() - start
        if (rounds is not None and k >= rounds) or (seconds is not None and elapsed >= seconds):
            return records, first, elapsed, calibration


def verify(workload, records, first):
    """Item verdicts (ok, defect, failed) summed over the records, and for
    each record whether its call passed. A repeated spec must give output
    identical to its first call."""
    verdicts = {key: workload.check(spec, output) for key, (spec, output, _) in first.items()}
    totals = np.zeros(3, dtype=int)
    passed = []
    for r in records:
        key = (r.round % len(workload.rounds), r.index)
        verdict = verdicts[key] if first[key][2] == r.digest else (0, 0, workload.items(r.spec))
        totals += verdict
        passed.append(verdict[1] == verdict[2] == 0)
    return totals, passed


def round_rates(workload, records, passed) -> list:
    """Items per second of the passing calls of each round, from the calls'
    own latencies; the reported rate is their median, so a few slowed rounds
    do not set it."""
    items, seconds = Counter(), Counter()
    for r, ok in zip(records, passed):
        if ok:
            items[r.round] += workload.items(r.spec)
            seconds[r.round] += r.latency
    return [items[k] / seconds[k] for k in items]


def tail(latencies):
    """Latency at the highest whole percentile with at least ten calls beyond it."""
    values = sorted(latencies)
    n = len(values)
    if n <= 10:
        return values[-1], 100
    p = math.floor(100 * (n - 10) / n)
    return values[math.ceil(p * n / 100) - 1], p


def environment(seed: int) -> dict:
    import mpmath
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__, "blas": blas,
        "cores": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _wall(args) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def _outermost_cumulative(stderr: str) -> Counter:
    """Seconds per top-level package from ``-X importtime``, summing only
    entries that no entry of the same package encloses."""
    entries = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            entries.append((len(match.group(2)) // 2, match.group(3), int(match.group(1))))
    totals = Counter()
    ancestors = []  # children are printed before parents: walk backwards
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".", 1)[0]
        if all(a[1] != package for a in ancestors):
            totals[package] += cumulative / 1e6
        ancestors.append((depth, package))
    return totals


def import_profile() -> dict:
    """Start-up floors and cumulative import times of the CLI module."""
    profiles = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qcorr.cli"],
            check=True, capture_output=True, text=True, timeout=60,
        )
        profiles.append(_outermost_cumulative(proc.stderr))
    return {
        "cli.interpreter_s": statistics.median(_wall(["-c", "pass"]) for _ in range(IMPORT_REPEATS)),
        "cli.numpy_floor_s": statistics.median(
            _wall(["-c", "import numpy"]) for _ in range(IMPORT_REPEATS)
        ),
        **{
            f"cli.{package}_import_s": statistics.median(p[package] for p in profiles)
            for package in ("numpy", "scipy", "qcorr")
        },
    }


def src_lines() -> dict:
    """Non-blank, non-comment lines per module and for the whole package."""
    def count(path: Path) -> int:
        lines = path.read_text().splitlines()
        return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))

    package = SRC / "qcorr"
    out = {f"{layer}.src_lines": count(package / f"{layer}.py") for layer in tracing.LAYERS}
    out["qcorr.src_lines"] = sum(count(path) for path in package.glob("*.py"))
    return out


def measure(workload, seconds: float) -> dict:
    """End-to-end metrics. Times are scaled by ``host``, the run's median
    calibration time over the reference host's, so that they read as on the
    reference host; the unscaled values are kept in the info."""
    records, first, _, calibration = run_pass(workload, seconds=seconds, calibrate=True)
    rss = resource.getrusage(
        resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    ).ru_maxrss
    (ok, defect, failed), passed = verify(workload, records, first)
    attempted = ok + defect + failed
    passing = [r.latency for r, call_ok in zip(records, passed) if call_ok]
    tail_s, percentile = tail(passing)
    host = statistics.median(calibration) / workload.calibration_reference_s
    unscaled = {
        "items_per_s": statistics.median(round_rates(workload, records, passed)),
        "call_ms_p50": 1e3 * statistics.median(passing),
        "call_ms_tail": 1e3 * tail_s,
    }
    return {
        "attempted": int(attempted), "failed": int(failed),
        "metrics": {
            "items_per_s": unscaled["items_per_s"] * host,
            "call_ms_p50": unscaled["call_ms_p50"] / host,
            "call_ms_tail": unscaled["call_ms_tail"] / host,
            "peak_rss_mb": rss / 1024.0,
        },
        "info": {
            "unscaled": unscaled, "host_slowdown": host, "calibration_samples": len(calibration),
            "rounds": 1 + records[-1].round,
            "calls": len(records), "passing_calls": len(passing), "tail_percentile": percentile,
            "call_time_s": sum(r.latency for r in records), "fail_frac": (defect + failed) / attempted,
            "known_defect_items": int(defect), "unexpected_failed_items": int(failed),
        },
    }


def trace(workload) -> dict:
    rounds = workload.trace_rounds
    plain, plain_first, plain_elapsed, _ = run_pass(workload, rounds=rounds)
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        traced, traced_first, traced_elapsed, _ = run_pass(
            workload, rounds=rounds, recorder=recorder, first_id=len(plain)
        )
    finally:
        tracing.uninstall(restore)
    if not workload.in_process:
        for call_id in range(len(plain), len(plain) + len(traced)):
            recorder.merge(json.loads(workload.spans_path(call_id).read_text()), call_id)
    # per-item figures count only calls that returned: a raising sweep stops early
    returned, kinds = set(), Counter()
    for call_id, r in enumerate(traced, start=len(plain)):
        if not r.raised:
            returned.add(call_id)
            kinds.update(workload.kinds(r.spec))
    (WORK / f"spans-{workload.name}.json").write_text(json.dumps(recorder.dump()))

    (ok, defect, failed), _ = verify(workload, traced, traced_first)
    plain_counts, _ = verify(workload, plain, plain_first)
    attempted = ok + defect + failed
    untraced_rate = plain_counts.sum() / plain_elapsed
    traced_rate = attempted / traced_elapsed
    metrics = {
        **tracing.layer_metrics(recorder, kinds, returned),
        **import_profile(),
        **src_lines(),
        "trace.items_per_s": traced_rate,
        "trace.untraced_items_per_s": untraced_rate,
        "trace.overhead_items_per_s": untraced_rate - traced_rate,
        "check.fail_frac": (defect + failed) / attempted,
    }
    return {
        "attempted": int(attempted + plain_counts.sum()), "failed": int(failed + plain_counts[2]),
        "metrics": metrics,
        "info": {"rounds": rounds, "calls": len(traced), "spans": len(recorder.spans),
                 "known_defect_items": int(defect), "unexpected_failed_items": int(failed)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()

    import qcorr

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](qcorr, args.seed, workdir)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(workload, args.seconds) if args.mode == "measure" else trace(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0
    result["info"]["defect_region"] = workload.defect_region
    result["info"]["env"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
