#!/usr/bin/env python3
"""One measurement process: set up one workload, run its batches, check them.

`run.py` starts this in a fresh interpreter with `src` on PYTHONPATH.  With
`--setup-only` it prints READY once the first query could start and exits;
`run.py` times that from process start to get `setup_s`.  Otherwise it runs
the workload's fixed batch repeatedly for `--seconds` (each batch from cold
`lru_cache`s, as every `qhplane` invocation starts), checks every answer and
prints one JSON object as its last line.  With `--trace 1` the first half of
the time runs untraced batches and the second half traced ones; the traced
batches give the per-layer metrics and `trace.overhead_frac`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import qhplane
import workloads as wl
from bench_stats import percentile, tail_supported
from spans import LAYER_METRICS, Instrumented

MAX_FAILURES_SHOWN = 10
#: End-to-end metrics measured here; run.py adds setup_s.
END_TO_END_UNITS = {
    "answers_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def clear_caches() -> None:
    """Empty every functools cache in the package."""
    for name, mod in list(sys.modules.items()):
        if name == "qhplane" or name.startswith("qhplane."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Phase:
    """Batches of one kind (traced or not) and what they answered."""

    def __init__(self):
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.layer_runs: list[dict[str, float]] = []
        self.last_trace = None

    def run(self, workload, inputs: dict, seconds: float, traced: bool) -> None:
        start = perf_counter()
        while not self.walls or perf_counter() - start < seconds:
            clear_caches()
            gc.collect()
            probe = Instrumented() if traced else None
            batch = wl.Batch(probe.log if probe else None)
            with probe or contextlib.nullcontext():
                t0 = perf_counter()
                workload.run(batch, inputs)
                wall = perf_counter() - t0
            if probe:
                self.layer_runs.append(probe.metrics(len(batch.answers), wall))
                self.last_trace = probe
            self.walls.append(wall)
            self.attempted += len(batch.answers)
            for answer in batch.answers:
                self.latencies.append(answer.seconds)
                why = wl.failure(workload, answer, inputs)
                if why is not None:
                    self.failures.append(f"{answer.key}: {why}")

    @property
    def answers_per_batch(self) -> int:
        return self.attempted // len(self.walls)


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced phase, and their sample counts."""
    ms = [s * 1000 for s in phase.latencies]
    rates = [phase.answers_per_batch / w for w in phase.walls]
    metrics = {
        "answers_per_s": statistics.median(rates),
        "answer_p50_ms": percentile(ms, 50),
        "answer_p90_ms": percentile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "batches": len(phase.walls),
        "answers": len(ms),
        "answer_p90_tail_supported": tail_supported(len(ms), 90),
    }
    return metrics, samples


def per_layer(untraced: Phase, traced: Phase) -> tuple[dict, dict]:
    """Per-layer metrics (medians over the traced batches), and how their
    self times add up against the batch wall times."""
    runs = traced.layer_runs
    metrics = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    untraced_wall = statistics.median(untraced.walls)
    traced_wall = statistics.median(traced.walls)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    layer_self = sum(v for k, v in metrics.items() if k.endswith("_s"))
    accounting = {
        "layer_self_s": layer_self,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "layer_self_over_untraced_wall": layer_self / untraced_wall,
    }
    return metrics, accounting


def source_stamp() -> dict:
    """Git commit when the checkout is a repository, and a digest of the
    package sources either way."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "**", "*.py"), recursive=True)):
        digest.update(path.encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    sha = None
    if os.path.isdir(".git"):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no git here: the source digest still identifies the code
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def environment(args) -> dict:
    import numpy

    return {
        **source_stamp(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "fresh_interpreter": True,
        "cold_caches": "lru_caches cleared and gc collected before every batch",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(qhplane.__file__).startswith(src):
        print(f"qhplane imported from {qhplane.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.out_dir)
    if args.setup_only:
        print("READY", flush=True)
        return 0

    untraced, traced = Phase(), Phase()
    share = 0.5 if args.trace else 1.0
    untraced.run(workload, inputs, args.seconds * share, traced=False)
    e2e, samples = end_to_end(untraced)
    accounting = None
    if args.trace:
        traced.run(workload, inputs, args.seconds * share, traced=True)
        values, accounting = per_layer(untraced, traced)
        units = LAYER_METRICS
    else:
        values, units = e2e, END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failures = untraced.failures + traced.failures
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args),
        "samples": samples,
        "batch_wall_s": untraced.walls,
        "traced_batch_wall_s": traced.walls,
        "answers_per_batch": untraced.answers_per_batch,
        "attempted": untraced.attempted + traced.attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / (untraced.attempted + traced.attempted),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "end_to_end_untraced": e2e,
        "accounting": accounting,
        "metrics": metrics,
    }
    if traced.last_trace is not None:
        log = traced.last_trace.log
        log.save(os.path.join(args.out_dir, f"spans-{args.workload}.npz"), report["env"])
        report["spans_file"] = f"spans-{args.workload}.npz"
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
