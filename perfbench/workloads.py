"""The benchmark's four workloads and the checks on their answers.

An answer is one call that a `qhplane` subcommand makes for one system or
one table row.  Every workload calls the layer modules through their
module attributes (`oracle.measure_dim`, never a name imported from the
module), so the traced run sees each call.  Each workload has:

- `inputs(seed, out_dir)`: everything the batch needs, built before the
  first query (this is the input-generation part of `setup_s`);
- `run(batch, inputs)`: the fixed batch of answers;
- `check(answer, inputs)`: a failure reason, or None for a correct answer.
  References never come from the call being checked.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

from qhplane import classifier, degeneration, minus_one, oracle
from qhplane.core import L

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass
class Answer:
    key: tuple
    value: Any
    error: Optional[str]
    seconds: float


class Batch:
    """Collects the answers of one batch, timing each call.  With a span log,
    every span recorded during a call carries that answer's index."""

    def __init__(self, log=None):
        self.answers: list[Answer] = []
        self._log = log

    def ask(self, key: tuple, fn: Callable, *args) -> Answer:
        if self._log is not None:
            self._log.answer_id = len(self.answers)
        start = perf_counter()
        try:
            value, error = fn(*args), None
        except Exception as exc:  # a raising answer is a failed answer
            value, error = None, f"{type(exc).__name__}: {exc}"
        answer = Answer(key, value, error, perf_counter() - start)
        self.answers.append(answer)
        return answer


def expected(d: int, m0: int, n: int, m: int) -> int:
    """max(-1, v), written out here so the checks do not use the package."""
    return max(-1, d * (d + 3) // 2 - m0 * (m0 + 1) // 2 - n * m * (m + 1) // 2)


def _seed32(seed: int) -> int:
    return seed % 2**32


# ---------------------------------------------------------------------------
# sweep: the theory-vs-oracle cells of `qhplane verify --d-max 7 --n-max 7`.
# ---------------------------------------------------------------------------

SWEEP_D_MAX, SWEEP_N_MAX, SWEEP_M_MAX = 7, 7, 3
ORACLE_TRIALS = 3  # the CLI default


def sweep_inputs(seed: int, out_dir: str) -> dict:
    cells = [
        (d, m0, n, m)
        for d in range(SWEEP_D_MAX + 1)
        for m in range(1, SWEEP_M_MAX + 1)
        for m0 in range(d + 1)
        for n in range(SWEEP_N_MAX + 1)
    ]
    return {"cells": cells, "seed": _seed32(seed)}


def verify_cell(d: int, m0: int, n: int, m: int, seed: int) -> tuple[int, int]:
    """The calls of `cli._verify_cell`: (classifier dim, oracle dim)."""
    system = L(d, m0, n, m)
    cfg = oracle.OracleConfig(trials=ORACLE_TRIALS, seed=seed)
    theory = classifier.dimension(system)
    measured = oracle.measure_dim(system, cfg).dim
    return theory.dim, measured


def sweep_run(batch: Batch, inputs: dict) -> None:
    for cell in inputs["cells"]:
        batch.ask(cell, verify_cell, *cell, inputs["seed"])


def sweep_check(answer: Answer, inputs: dict) -> Optional[str]:
    theory, measured = answer.value
    if theory != measured:
        return f"classifier dim {theory} != oracle dim {measured}"
    return None


# ---------------------------------------------------------------------------
# oracle_large: `qhplane oracle` on near-boundary cells, 20 <= d <= 32.
# ---------------------------------------------------------------------------

#: (d, m0, n, m) with v near 0, in three cost tiers of near-equal cells so
#: that the 50th and 90th latency percentiles each fall inside one tier for
#: any batch count: five cheap cells (d = 20..22), five middle ones (d = 24)
#: and two dear ones (d = 30, 32).  L(20,10,6,7) is special (v = 7,
#: dim = 8); L(30,16,36,4) is empty (v = -1).
ORACLE_LARGE_CELLS = (
    (20, 10, 6, 7),
    (20, 12, 10, 5),
    (21, 10, 13, 5),
    (21, 8, 10, 6),
    (22, 9, 8, 7),
    (24, 15, 20, 4),
    (24, 17, 11, 5),
    (24, 12, 16, 5),
    (24, 13, 11, 6),
    (24, 11, 9, 7),
    (30, 16, 36, 4),
    (32, 23, 28, 4),
)


def oracle_inputs(seed: int, out_dir: str) -> dict:
    return {"cells": ORACLE_LARGE_CELLS, "seed": _seed32(seed)}


def oracle_cell(cell: tuple, seed: int) -> tuple[int, int, bool]:
    """The calls of `cmd_oracle`: (measured dim, expected dim, special)."""
    cfg = oracle.OracleConfig(seed=seed)
    return oracle.measure_speciality(L(*cell), cfg)


def oracle_run(batch: Batch, inputs: dict) -> None:
    for cell in inputs["cells"]:
        batch.ask(cell, oracle_cell, cell, inputs["seed"])


def oracle_check(answer: Answer, inputs: dict) -> Optional[str]:
    dim, e, special = answer.value
    ref = classifier.dimension(L(*answer.key)).dim
    if e != expected(*answer.key):
        return f"expected dim {e} != {expected(*answer.key)}"
    if dim != ref:
        return f"oracle dim {dim} != classifier dim {ref}"
    if special != (ref > e):
        return f"special={special} but classifier dim {ref}, e {e}"
    return None


# ---------------------------------------------------------------------------
# certify: one-shot `qhplane certify`, then a ladder through `--cache`.
# ---------------------------------------------------------------------------

CERTIFY_BUDGET = 100_000  # the CLI default


def _plane(d: int) -> int:
    return d * (d + 3) // 2


def _trio(d: int, m: int) -> list[tuple[int, int, int, int]]:
    """Non-special (v >= 0), boundary-empty (first v < 0) and deep-empty
    (40% more points) targets L(d, 0, n, m)."""
    w = m * (m + 1) // 2
    n = _plane(d) // w
    return [(d, 0, n, m), (d, 0, n + 1, m), (d, 0, (n + 1) * 7 // 5, m)]


ONE_SHOT_TARGETS = tuple(
    [t for d in (30, 50) for t in _trio(d, 2)]
    + [t for d in (30, 50, 70, 90) for t in _trio(d, 3)]
    + [(120, 0, 1600, 3)]
)

#: 62 targets, d = 40..101, alternating boundary-empty (even d) and
#: non-special (odd d) m = 3 systems.
LADDER_TARGETS = tuple(
    (d, 0, _plane(d) // 6 + (d % 2 == 0), 3) for d in range(40, 102)
)


def certify_inputs(seed: int, out_dir: str) -> dict:
    one_shot = list(ONE_SHOT_TARGETS)
    random.Random(seed).shuffle(one_shot)
    return {
        "one_shot": one_shot,
        "ladder": LADDER_TARGETS,
        "cache_path": os.path.join(out_dir, f"certify-memo-{os.getpid()}.json"),
    }


def certify_one(target: tuple) -> degeneration.Certificate:
    return degeneration.certify(L(*target), budget=CERTIFY_BUDGET)


def certify_cached(target: tuple, path: str) -> degeneration.Certificate:
    return degeneration.certify(L(*target), budget=CERTIFY_BUDGET, cache_path=path)


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


def certify_run(batch: Batch, inputs: dict) -> None:
    for target in inputs["one_shot"]:
        batch.ask(("one-shot",) + target, certify_one, target)
    path = inputs["cache_path"]
    _remove(path)
    try:
        for target in inputs["ladder"]:
            batch.ask(("cached",) + target, certify_cached, target, path)
    finally:
        _remove(path)


def certify_check(answer: Answer, inputs: dict) -> Optional[str]:
    cert = answer.value
    system = answer.key[1:]
    ref = classifier.dimension(L(*system)).dim  # proved for m <= 3
    if cert.outcome == "EmptyProved":
        want = -1
    elif cert.outcome == "NonSpecialProved":
        want = expected(*system)
    else:
        return f"{cert.outcome} where a proof is expected"
    if cert.dim != want or ref != want:
        return f"{cert.outcome} dim {cert.dim}, classifier dim {ref}, want {want}"
    return None


# ---------------------------------------------------------------------------
# catalogue: the rows of `qhplane enumerate` and `qhplane classify`.
# ---------------------------------------------------------------------------

CLASSES_M_MAX = 150
CONFIGURATIONS_M_MAX = 17
#: The m = 4..7 box the classify rows are sampled from, and the number of
#: (d, m0) cells drawn for each (m, n) pair.  The box stops below the
#: large-m0 closed forms (m0 >= d - m - 1), so every sampled row runs the
#: fixed-part decomposition search.
BOX_D = (10, 20)
BOX_M = (4, 7)
BOX_N = (3, 10)
BOX_PER_STRATUM = 2


def class_row(c) -> list:
    """One row of `qhplane enumerate`."""
    irreducible, _ = minus_one.is_irreducible_class(c)
    x, y = c.witness if c.witness else ("-", "-")
    s = c.system
    return [s.d, s.m0, s.n, s.m, x, y, c.family, irreducible]


def configuration_rows(m_max: int) -> list[list]:
    """The rows of `qhplane enumerate --configurations`."""
    return [
        [c.total.d, c.total.m0, c.total.n, c.total.m,
         c.delta, c.mu0, c.mu1, c.mu2, c.compound]
        for c in minus_one.enumerate_configurations(m_max)
    ]


def classify_row(cell: tuple) -> list:
    """The calls of `cmd_classify`: [special, dim, status, decomposed]."""
    system = L(*cell)
    special, result = classifier.is_special(system)
    decomp = (result.certificate or {}).get("decomposition")
    if decomp is None and system.n > 0 and system.m > 0:
        found = minus_one.find_special_decomposition(system)
        decomp = found.to_dict() if found else None
    return [special, result.dim, result.status.value, decomp is not None]


def box_cells():
    d_lo, d_hi = BOX_D
    for m in range(BOX_M[0], BOX_M[1] + 1):
        for n in range(BOX_N[0], BOX_N[1] + 1):
            yield m, n, [
                (d, m0, n, m) for d in range(d_lo, d_hi + 1) for m0 in range(d - m - 1)
            ]


def box_default(cell: tuple) -> list:
    """The classify row recorded for a box cell absent from the exceptions."""
    return [False, expected(*cell), "Conjectural", False]


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def catalogue_inputs(seed: int, out_dir: str) -> dict:
    ref = load_reference()
    rng = random.Random(seed)
    sampled = [
        cell for _, _, cells in box_cells() for cell in rng.sample(cells, BOX_PER_STRATUM)
    ]
    classify = {tuple(row[:4]): row[4:] for row in ref["table_instances"]}
    classify.update(
        (cell, ref["box_exceptions"].get(",".join(map(str, cell)), box_default(cell)))
        for cell in sampled
    )
    return {
        "classes": {tuple(row[:4]): row for row in ref["classes"]},
        "configurations": ref["configurations"],
        "classify": classify,
    }


def catalogue_run(batch: Batch, inputs: dict) -> None:
    classes = batch.ask(("enumerate",), minus_one.enumerate_qh_classes, CLASSES_M_MAX)
    for c in classes.value or ():
        batch.ask(("irreducible",) + c.system.as_tuple(), class_row, c)
    batch.ask(("configurations",), configuration_rows, CONFIGURATIONS_M_MAX)
    for cell in inputs["classify"]:
        batch.ask(("classify",) + cell, classify_row, cell)


def is_minus_one_class(d: int, m0: int, n: int, m: int) -> bool:
    return d * d - m0 * m0 - n * m * m == -1 and 3 * d - m0 - n * m == 1


def catalogue_check(answer: Answer, inputs: dict) -> Optional[str]:
    kind, key = answer.key[0], answer.key[1:]
    if kind == "enumerate":
        got = [c.system.as_tuple() for c in answer.value]
        bad = [t for t in got if not is_minus_one_class(*t)]
        if bad:
            return f"not (-1)-classes: {bad[:3]}"
        if sorted(got) != sorted(inputs["classes"]):
            return "class list differs from the reference"
        return None
    if kind == "irreducible":
        want = inputs["classes"].get(key)
        if not is_minus_one_class(*key):
            return f"{key} is not a (-1)-class"
        if answer.value != want:
            return f"row {answer.value} != reference {want}"
        return None
    if kind == "configurations":
        if answer.value != inputs["configurations"]:
            return "configuration rows differ from the reference"
        return None
    want = inputs["classify"][key]
    if answer.value != want:
        return f"classify {answer.value} != reference {want}"
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, str], dict]
    run: Callable[[Batch, dict], None]
    check: Callable[[Answer, dict], Optional[str]]


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_run, sweep_check),
    "oracle_large": Workload(oracle_inputs, oracle_run, oracle_check),
    "certify": Workload(certify_inputs, certify_run, certify_check),
    "catalogue": Workload(catalogue_inputs, catalogue_run, catalogue_check),
}


def failure(workload: Workload, answer: Answer, inputs: dict) -> Optional[str]:
    """Why an answer failed: it raised, or its check found it wrong."""
    if answer.error is not None:
        return answer.error
    try:
        return workload.check(answer, inputs)
    except Exception as exc:  # a checker crash on a malformed answer
        return f"check raised {type(exc).__name__}: {exc}"
