#!/usr/bin/env python3
"""qhplane benchmark: one workload, one seed, one result line.

Usage (from the repository root):
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, oracle_large, certify, catalogue (see perfbench/README.md).
The program under test is the `qhplane` package in `src/`; it is pure
Python, so there is nothing to build.  Every measurement runs in a fresh
single-threaded interpreter started by this script.

With `--trace 0` the result holds the end-to-end metrics; `setup_s` is the
median over SETUP_REPEATS fresh interpreters of the time from process start
until the workload's first query is ready (imports plus input generation).
With `--trace 1` it holds the per-layer metrics of the traced batches.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it is the full report: the environment stamp, sample
counts, batch times and the first failures.  Reports and the spans of the
last traced batch are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "oracle_large", "certify", "catalogue")
OUT_DIR = ".bench_out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 30
RUN_DEADLINE_S = 170  # the whole script must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out-dir", OUT_DIR,
        *extra,
    ]


def time_setup(args, env: dict) -> float:
    """Seconds from starting a fresh interpreter until it reports READY."""
    start = perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        elapsed = perf_counter() - start
        if line.strip() != b"READY":
            raise BenchError(f"setup of {args.workload} did not report READY")
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"setup of {args.workload} exited with {proc.returncode}")
    return elapsed


def measure(args, env: dict, timeout: float) -> dict:
    cmd = worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{args.workload} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qhplane benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = perf_counter()

    if not os.path.isfile(os.path.join("src", "qhplane", "__init__.py")):
        print("run from the repository root: src/qhplane not found", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    try:
        setup = [] if args.trace else [time_setup(args, env) for _ in range(SETUP_REPEATS)]
        report = measure(args, env, RUN_DEADLINE_S - (perf_counter() - started))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = report.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        report["samples"]["setup_s"] = setup
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
