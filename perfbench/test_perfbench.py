"""Tests of the benchmark's own helpers.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import pytest

import workloads as wl
from bench_stats import beyond, percentile, rank, tail_supported
from qhplane import degeneration
from qhplane.core import L
from spans import Instrumented, SpanLog, self_times


# -- percentile rule ---------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert beyond(100, 90) == 10 and tail_supported(100, 90)
    assert beyond(99, 90) == 9 and not tail_supported(99, 90)
    assert not tail_supported(22, 90)
    assert tail_supported(20, 50)


def test_nearest_rank_is_exact_integer_arithmetic():
    xs = list(range(1, 101))
    assert rank(100, 90) == 90  # 0.9 * 100 would round up to 91
    assert percentile(xs, 90) == 90
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        rank(0, 50)


# -- self time over nested spans ---------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # 0: [0, 10] top; 1: [2, 5] child of 0; 2: [3, 4] child of 1;
    # 3: [6, 8] child of 0; 4: [11, 12] a second top-level span.
    start = [0.0, 2.0, 3.0, 6.0, 11.0]
    end = [10.0, 5.0, 4.0, 8.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    own = self_times(start, end, parent)
    assert own.tolist() == [5.0, 2.0, 1.0, 2.0, 1.0]
    # self times partition the top-level spans
    assert own.sum() == 10.0 + 1.0


def test_span_log_records_parents_and_answer_ids():
    log = SpanLog()
    outer, inner = log.name_id("a"), log.name_id("b")
    log.answer_id = 7
    i = log.open(outer)
    j = log.open(inner)
    log.close(j)
    log.close(i)
    k = log.open(inner)
    log.close(k)
    assert list(log.parent) == [-1, 0, -1]
    assert list(log.answer) == [7, 7, 7]
    seconds, calls = log.totals()
    assert calls == {"a": 1, "b": 2}
    assert seconds["a"] >= 0 and seconds["b"] >= 0


def test_probes_count_certifier_nodes_and_hits():
    target = L(30, 0, 83, 3)
    plain = degeneration.Certifier()
    plain.certify(target)
    original = degeneration.certify
    with Instrumented() as probe:
        assert degeneration.certify is not original
        cert = degeneration.certify(target)
    assert degeneration.certify is original  # probes removed on exit
    assert not hasattr(degeneration.Certifier.certify, "__wrapped__")
    assert cert.outcome == "EmptyProved"
    m = probe.metrics(answers=1, wall_s=1.0)
    assert m["degeneration.nodes"] == plain.nodes
    calls = probe.log.totals()[1]["degeneration.Certifier.certify"]
    assert m["degeneration.memo_hit_frac"] == pytest.approx((calls - plain.nodes) / calls)
    # every span's self time lands in exactly one time metric
    seconds = probe.log.totals()[0]
    time_metrics = sum(v for k, v in m.items() if k.endswith("_s"))
    assert time_metrics == pytest.approx(sum(seconds.values()))


# -- reference checks flag wrong answers -------------------------------------


def _answer(key, value):
    return wl.Answer(key=key, value=value, error=None, seconds=0.0)


def test_sweep_check_flags_disagreement():
    assert wl.sweep_check(_answer((4, 0, 5, 2), (0, 0)), {}) is None
    assert "!=" in wl.sweep_check(_answer((4, 0, 5, 2), (0, -1)), {})


def test_oracle_check_flags_wrong_dimension_and_verdict():
    key = (20, 10, 6, 7)  # v = 7, dim = 8: special
    assert wl.oracle_check(_answer(key, (8, 7, True)), {}) is None
    assert wl.oracle_check(_answer(key, (7, 7, False)), {}) is not None
    assert wl.oracle_check(_answer(key, (8, 7, False)), {}) is not None


def test_certify_check_flags_unproved_and_wrong_outcomes():
    empty, nonspecial = (30, 0, 83, 3), (30, 0, 82, 3)
    ok = degeneration.Certificate(L(*empty), "EmptyProved", -1)
    assert wl.certify_check(_answer(("one-shot",) + empty, ok), {}) is None
    wrong = degeneration.Certificate(L(*nonspecial), "EmptyProved", -1)
    assert wl.certify_check(_answer(("cached",) + nonspecial, wrong), {}) is not None
    stuck = degeneration.Certificate(L(*empty), "Inconclusive", None)
    assert "Inconclusive" in wl.certify_check(_answer(("one-shot",) + empty, stuck), {})


def test_catalogue_check_flags_rows_differing_from_reference():
    inputs = wl.catalogue_inputs(seed=0, out_dir=".")
    row = inputs["classes"][(56, 48, 17, 7)]  # the class the old table omits
    key = ("irreducible", 56, 48, 17, 7)
    assert wl.catalogue_check(_answer(key, list(row)), inputs) is None
    flipped = list(row[:-1]) + [not row[-1]]
    assert wl.catalogue_check(_answer(key, flipped), inputs) is not None
    # a row that is not a (-1)-class at all
    assert "not a (-1)-class" in wl.catalogue_check(
        _answer(("irreducible", 56, 48, 17, 6), list(row)), inputs
    )
    cell, want = next(iter(inputs["classify"].items()))
    assert wl.catalogue_check(_answer(("classify",) + cell, want), inputs) is None
    wrong = [not want[0]] + want[1:]
    assert wl.catalogue_check(_answer(("classify",) + cell, wrong), inputs) is not None


def test_failure_counts_raised_answers():
    answer = wl.Answer(key=(1,), value=None, error="BudgetExceeded: x", seconds=0.0)
    assert wl.failure(wl.WORKLOADS["sweep"], answer, {}) == "BudgetExceeded: x"
