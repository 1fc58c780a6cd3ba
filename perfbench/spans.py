"""Spans around the calls into each layer, recorded from outside the package.

`Instrumented` patches the public functions of the layer modules (`oracle`,
`minus_one`, `cremona`, `classifier`, `degeneration`) in every `qhplane`
module that binds them, plus `OracleConfig.__post_init__` and three
`Certifier` methods on their classes, so recursive and cross-module calls are
all seen.  Each call records a span
(name, start, end, parent, answer id) in a `SpanLog`, which keeps them in
columnar arrays in memory.  A layer's self time is a span's duration minus
the time its child spans cover.

Modules `core` (O(1) formulas), `tables` (constants) and `cli` (argument
parsing) get no probes: their time lands in the self time of whichever
span called them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children lie inside their parent and do
    not overlap each other; the covered time is the sum of their
    durations."""
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


class SpanLog:
    """Spans in memory, one array per field; a span's parent is the index of
    the span open when it started (-1 at the top), and its answer id is the
    index of the answer being computed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.answer = array("q")
        self.answer_id = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.answer.append(self.answer_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name."""
        if not len(self):
            return {}, {}
        ids = np.frombuffer(self.name, dtype=np.int32)
        own = self_times(self.start, self.end, self.parent)
        seconds = np.bincount(ids, weights=own, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return (
            {n: float(seconds[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path: str, header: dict) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            answer=np.frombuffer(self.answer, dtype=np.int64),
            header=np.array(repr(header)),
        )


# ---------------------------------------------------------------------------
# Probes: which functions get spans, which time metric their self time feeds,
# and the counts read from their arguments and results.
# ---------------------------------------------------------------------------

Hook = Callable[[Counter, tuple, Any, Any], None]

STATUS_NAMES = ("NonSpecialProved", "SpecialProved", "Conjectural", "OracleMeasured")


def _count_cells(counts, args, result, _):
    counts["oracle.matrix_cells"] += int(result.shape[0]) * int(result.shape[1])


def _count_status(counts, args, result, _):
    status = result.status.value
    counts["classifier.status." + (status if status in STATUS_NAMES else "other")] += 1


def _count_len(metric: str) -> Hook:
    def hook(counts, args, result, _):
        counts[metric] += len(result)

    return hook


def _count_irreducible(counts, args, result, _):
    counts["minus_one.irreducible"] += bool(result[0])


def _count_found(counts, args, result, _):
    counts["minus_one.decompose_found"] += result is not None


def _count_steps(counts, args, result, _):
    counts["cremona.reduce_steps"] += sum(1 for step in result[1] if "pivot" in step)


def _nodes_before(args):
    return args[0].nodes


def _count_node(counts, args, result, nodes_before):
    # A memo hit returns without counting a node; a miss counts itself.
    if args[0].nodes > nodes_before:
        counts["degeneration.nodes"] += 1
        counts["degeneration.inconclusive"] += result.outcome == "Inconclusive"


def _count_split(counts, args, result, _):
    counts["degeneration.splits_tried"] += 1


def _count_split_success(counts, args, result, _):
    d, m0, n, m = args[0].parent.as_tuple()
    v = d * (d + 3) // 2 - m0 * (m0 + 1) // 2 - n * m * (m + 1) // 2
    counts["degeneration.split_successes"] += result == max(-1, v)


def _count_cache(counts, args, result, _):
    certifier, path = args[0], args[1]
    counts["degeneration.cache_entries"] = len(certifier.memo)
    counts["degeneration.cache_bytes"] = os.path.getsize(path)


@dataclass(frozen=True)
class Probe:
    module: str
    target: str  # "function" or "Class.method"
    metric: str  # the time metric this span's self time adds to
    after: Optional[Hook] = None
    before: Optional[Callable[[tuple], Any]] = None

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.target}"


_CLOSED_FORMS = (
    "dim_few_points",
    "dim_large_m0",
    "dim_m0_ge_d_minus_m",
    "dim_m0_eq_d_minus_m",
    "dim_m0_eq_d_minus_m_minus_1",
)

PROBES: tuple[Probe, ...] = (
    Probe("oracle", "OracleConfig.__post_init__", "oracle.config_s"),
    Probe("oracle", "condition_rows", "oracle.build_s", _count_cells),
    Probe("oracle", "rank_mod_p", "oracle.rank_s"),
    Probe("oracle", "measure_dim_mults", "oracle.measure_s"),
    Probe("oracle", "measure_dim", "oracle.measure_s"),
    Probe("oracle", "measure_speciality", "oracle.measure_s"),
    Probe("classifier", "dimension", "classifier.dimension_s", _count_status),
    Probe("classifier", "is_special", "classifier.dimension_s"),
    Probe("classifier", "lookup_special_table", "classifier.dimension_s"),
    Probe("minus_one", "enumerate_qh_classes", "minus_one.enumerate_s",
          _count_len("minus_one.classes")),
    Probe("minus_one", "enumerate_configurations", "minus_one.enumerate_s",
          _count_len("minus_one.configurations")),
    Probe("minus_one", "is_irreducible_class", "minus_one.irreducible_s",
          _count_irreducible),
    Probe("minus_one", "candidates_for", "minus_one.candidates_s"),
    Probe("minus_one", "find_special_decomposition", "minus_one.decompose_s",
          _count_found),
    Probe("cremona", "reduces_to_line", "cremona.reduce_s", _count_steps),
    *(Probe("cremona", name, "cremona.closed_form_s") for name in _CLOSED_FORMS),
    Probe("degeneration", "certify", "degeneration.certify_s"),
    Probe("degeneration", "Certifier.certify", "degeneration.certify_s",
          _count_node, _nodes_before),
    Probe("degeneration", "split", "degeneration.certify_s", _count_split),
    Probe("degeneration", "dim_L0", "degeneration.certify_s", _count_split_success),
    Probe("degeneration", "Certifier.load_cache", "degeneration.load_cache_s"),
    Probe("degeneration", "Certifier.save_cache", "degeneration.save_cache_s",
          _count_cache),
)

#: Every per-layer metric, in report order.
LAYER_METRICS: dict[str, str] = {
    "oracle.config_s": "s",
    "oracle.configs": "count",
    "oracle.build_s": "s",
    "oracle.rank_s": "s",
    "oracle.measure_s": "s",
    "oracle.matrices": "count",
    "oracle.matrices_per_answer": "ratio",
    "oracle.matrix_cells": "count",
    "oracle.matrix_bytes_computed": "bytes",
    "classifier.dimension_s": "s",
    "classifier.calls": "count",
    **{f"classifier.status.{s}": "count" for s in STATUS_NAMES + ("other",)},
    "minus_one.enumerate_s": "s",
    "minus_one.classes": "count",
    "minus_one.configurations": "count",
    "minus_one.irreducible_s": "s",
    "minus_one.irreducible_frac": "ratio",
    "minus_one.candidates_s": "s",
    "minus_one.decompose_s": "s",
    "minus_one.decompose_calls": "count",
    "minus_one.decompose_found_frac": "ratio",
    "cremona.reduce_s": "s",
    "cremona.reduce_calls": "count",
    "cremona.reduce_steps": "count",
    "cremona.closed_form_s": "s",
    "cremona.closed_form_calls": "count",
    "degeneration.certify_s": "s",
    "degeneration.nodes": "count",
    "degeneration.memo_hit_frac": "ratio",
    "degeneration.splits_tried": "count",
    "degeneration.split_success_frac": "ratio",
    "degeneration.inconclusive": "count",
    "degeneration.load_cache_s": "s",
    "degeneration.save_cache_s": "s",
    "degeneration.cache_entries": "count",
    "degeneration.cache_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
    "trace.spans": "count",
}


def _qhplane_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "qhplane" or name.startswith("qhplane.")
    ]


class Instrumented:
    """Context manager that installs the probes and removes them on exit."""

    def __init__(self):
        self.log = SpanLog()
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        try:
            for probe in PROBES:
                self._install(probe)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, probe: Probe) -> None:
        module = importlib.import_module(f"qhplane.{probe.module}")
        owner_name, _, attr = probe.target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._patch(owner, attr, self._wrap(probe, owner.__dict__[attr]))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(probe, original)
        for mod in _qhplane_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapped)

    def _wrap(self, probe: Probe, fn):
        log, counts = self.log, self.counts
        name_id = log.name_id(probe.span_name)
        before, after = probe.before, probe.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = log.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if after:
                after(counts, args, result, state)
            return result

        return traced

    def metrics(self, answers: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced batch; trace.overhead_frac is
        filled in by the caller, which also ran the untraced batches."""
        seconds, calls = self.log.totals()
        c = self.counts
        out = dict.fromkeys(LAYER_METRICS, 0.0)
        for probe in PROBES:
            out[probe.metric] += seconds.get(probe.span_name, 0.0)

        def n(span: str) -> int:
            return calls.get(span, 0)

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        matrices = n("oracle.rank_mod_p")
        certify_calls = n("degeneration.Certifier.certify")
        out.update({
            "oracle.configs": n("oracle.OracleConfig.__post_init__"),
            "oracle.matrices": matrices,
            "oracle.matrices_per_answer": frac(matrices, answers),
            "oracle.matrix_cells": c["oracle.matrix_cells"],
            "oracle.matrix_bytes_computed": 8 * c["oracle.matrix_cells"],
            "classifier.calls": n("classifier.dimension"),
            **{
                f"classifier.status.{s}": c[f"classifier.status.{s}"]
                for s in STATUS_NAMES + ("other",)
            },
            "minus_one.classes": c["minus_one.classes"],
            "minus_one.configurations": c["minus_one.configurations"],
            "minus_one.irreducible_frac": frac(
                c["minus_one.irreducible"], n("minus_one.is_irreducible_class")
            ),
            "minus_one.decompose_calls": n("minus_one.find_special_decomposition"),
            "minus_one.decompose_found_frac": frac(
                c["minus_one.decompose_found"],
                n("minus_one.find_special_decomposition"),
            ),
            "cremona.reduce_calls": n("cremona.reduces_to_line"),
            "cremona.reduce_steps": c["cremona.reduce_steps"],
            "cremona.closed_form_calls": n("cremona.dim_few_points")
            + n("cremona.dim_large_m0"),
            "degeneration.nodes": c["degeneration.nodes"],
            "degeneration.memo_hit_frac": frac(
                certify_calls - c["degeneration.nodes"], certify_calls
            ),
            "degeneration.splits_tried": c["degeneration.splits_tried"],
            "degeneration.split_success_frac": frac(
                c["degeneration.split_successes"], c["degeneration.splits_tried"]
            ),
            "degeneration.inconclusive": c["degeneration.inconclusive"],
            "degeneration.cache_entries": c["degeneration.cache_entries"],
            "degeneration.cache_bytes": c["degeneration.cache_bytes"],
            "trace.covered_frac": frac(sum(seconds.values()), wall_s),
            "trace.spans": len(self.log),
        })
        return {k: float(v) for k, v in out.items()}
