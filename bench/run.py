"""qcorr benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload discord_search --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` prints its ``per_layer`` metrics from a separate traced run.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the same
for a reader, with the percentile behind ``call_ms_tail``, the failure
breakdown and the versions measured.

Every measured process runs with one BLAS/OpenMP thread. Set-up is timed
from process start to the worker's ``READY`` line, once in each of
``SETUP_REPEATS`` processes, and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("discord_search", "quench_sweep", "cli_cold")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: int, mode: str):
    """Start one worker; returns (set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY" or (mode != "setup" and not lines):
        raise BenchError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    return setup_s, json.loads(lines[-1]) if mode != "setup" else None


def run_workload(workload: str, seed: int, seconds: int, traced: bool, listed: list) -> dict:
    if traced:
        _, result = run_worker(workload, seed, seconds, "trace")
    else:
        setups = [run_worker(workload, seed, seconds, "setup")[0] for _ in range(SETUP_REPEATS - 1)]
        setup_s, result = run_worker(workload, seed, seconds, "measure")
        setups.append(setup_s)
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {', '.join(missing)}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed
    }
    return result


def print_report(workload: str, result: dict):
    info = result["info"]
    print(f"== {workload}: correct={str(result['correct']).lower()} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"seed={info['env']['seed']}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if "fail_frac" in info:
        print(f"   {'fail_frac':<40} {info['fail_frac']:>14.6g} ratio"
              f"  (known-defect items {info['known_defect_items']}, "
              f"unexpected {info['unexpected_failed_items']}; not gated)")
        print(f"   call_ms_tail is p{info['tail_percentile']} of {info['passing_calls']} passing calls "
              f"({info['calls']} calls, {info['rounds']} rounds, {info['call_time_s']:.2f} s in calls)")
        unscaled = ", ".join(f"{k}={v:.6g}" for k, v in info["unscaled"].items())
        print(f"   times scaled by host slowdown {info['host_slowdown']:.4f} "
              f"({info['calibration_samples']} calibration samples); unscaled: {unscaled}")
    rest = {k: v for k, v in info.items() if k != "env"}
    print(f"   info {json.dumps(rest)}")
    print(f"   env {json.dumps(info['env'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcorr end-to-end and per-layer benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcorr" / "__init__.py").is_file():
        print(f"bench: no qcorr sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), listed) for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        print_report(workload, result)
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
