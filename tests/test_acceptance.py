"""Acceptance suite: one test per criterion, each emitting a single
CRITERION n: PASS/FAIL line (written past pytest's capture so the verdicts
always appear in the run log)."""

import sys
import time

import numpy as np
import pytest

from qhplane.classifier import dimension, lookup_special_table
from qhplane.core import L, Status, canonical_key, expected_dim, invariants, virtual_dim
from qhplane.cremona import dim_large_m0, quadratic_transform
from qhplane.degeneration import Certifier, split
from qhplane.minus_one import (
    enumerate_configurations,
    enumerate_qh_classes,
    find_special_decomposition,
    homogeneous_form,
)
from qhplane.oracle import OracleConfig, measure_dim, measure_dim_mults
from special_laws import laws

_ORACLE_CACHE: dict = {}

#: one verdict line per criterion; echoed by the terminal-summary hook in
#: conftest.py so the lines survive output capture.
REPORT_LINES: list[str] = []


def oracle_dim(sys_) -> int:
    key = canonical_key(*sys_.as_tuple())
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = measure_dim(sys_).dim
    return _ORACLE_CACHE[key]


def report(n: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION {n}: {verdict} — {detail}"
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


#: The published (-1)-class table with m <= 7 (tables.QH1LIST_ROWS): columns
#: d, m0, n, m, x, y; the infinite pencil family (e, e-1, 2e, 1) is one row.
PUBLISHED_CLASS_ROWS = {
    ("pencil-family",),
    (1, 1, 1, 1, "-", "-"),
    (2, 0, 5, 1, "-", "-"),
    (6, 3, 7, 2, 5, 1),
    (12, 8, 9, 3, 14, 1),
    (20, 15, 11, 4, 27, 1),
    (30, 24, 13, 5, 44, 1),
    (42, 35, 15, 6, 65, 1),
    (20, 3, 8, 7, 9, 10),
    (27, 17, 9, 7, 30, 3),
}

#: The m = 7 class the published table omits; admitted to criterion 1's
#: expected set only through _prove_class_row below.
PROVED_M7_ROW = (56, 48, 17, 7, 90, 1)


def _greedy_steps_to_line(d: int, mults: list[int]):
    """Greedy quadratic transformations, written out on plain integers so
    the proof does not lean on qhplane.cremona: pivot on the three largest
    multiplicities until (1; 1, 1) is reached.  Returns the step count, or
    None once an entry goes negative or the degree stops decreasing (so at
    most d steps are taken)."""
    mults = [x for x in mults if x]
    for step in range(d):
        if d == 1 and sorted(mults) == [1, 1]:
            return step
        if d < 1 or min(mults, default=0) < 0:
            return None
        a, b, c, *rest = sorted(mults + [0, 0, 0], reverse=True)
        if a + b + c <= d:
            return None
        mults = [x for x in [d - b - c, d - a - c, d - a - b, *rest] if x]
        d = 2 * d - a - b - c
    return None


def _pair_family_row(m: int) -> tuple[int, ...]:
    """(m(m+1), m^2-1, 2m+3, m) with divisor pair ((m-1)(2m+1), 1): the
    published rows for m = 2..6, and PROVED_M7_ROW at m = 7."""
    return (m * (m + 1), m * m - 1, 2 * m + 3, m, (m - 1) * (2 * m + 1), 1)


def _prove_class_row(row: tuple[int, ...]) -> int:
    """Prove, without the enumeration, that a (d, m0, n, m, x, y) row is a
    (-1)-class with divisor pair (x, y) that contains an actual curve.
    Returns the number of quadratic transformations down to the line."""
    d, m0, n, m, x, y = row
    # both Diophantine equations: L^2 = -1 and K.L = -1
    assert d * d - m0 * m0 - n * m * m == -1, row
    assert 3 * d - m0 - n * m == 1, row
    # the divisor-pair conditions, and (x, y) encodes exactly this row
    assert x * y == (m - 1) * (2 * m + 1), row
    assert x + m >= y and (x - y - m) % 2 == 0 and (x + 2 * y - 1) % m == 0, row
    encoded = ((x + y + 3 * m) // 2, (x - y + m) // 2, (x + 2 * y - 1) // m + 4)
    assert encoded == (d, m0, n), row
    steps = _greedy_steps_to_line(d, [m0] + [m] * n)
    assert steps is not None, f"{row} does not reduce to a line"
    return steps


def test_criterion_1_class_table_m_le_7():
    """The m <= 7 class enumeration against the published 10-row table plus
    the one m = 7 row it omits, L(56, 48, 17, 7), proved here first."""
    for m in range(2, 7):
        assert _pair_family_row(m) in PUBLISHED_CLASS_ROWS, m
        _prove_class_row(_pair_family_row(m))
    assert PROVED_M7_ROW == _pair_family_row(7)
    assert PROVED_M7_ROW not in PUBLISHED_CLASS_ROWS
    assert _prove_class_row(PROVED_M7_ROW) == 14

    t0 = time.time()
    classes = enumerate_qh_classes(7, e_max=1)
    rows = set()
    for c in classes:
        if c.family == "LinePencil":
            rows.add(("pencil-family",))
        else:
            x, y = c.witness if c.witness else ("-", "-")
            rows.add(c.system.as_tuple() + (x, y))
    expected = PUBLISHED_CLASS_ROWS | {PROVED_M7_ROW}
    elapsed = time.time() - t0
    extra = sorted(rows - expected, key=str)
    missing = sorted(expected - rows, key=str)
    ok = not extra and not missing and elapsed < 1.0
    scope = "published 10-row table + 1 proved m = 7 row"
    report(
        1,
        ok,
        f"{scope} vs enumeration in {elapsed:.2f}s; missing={missing} extra={extra}",
    )
    assert not missing, f"enumeration lacks {missing} from the {scope}"
    assert elapsed < 1.0
    assert not extra, f"enumeration finds {extra} beyond the {scope}"


def test_criterion_2_configuration_table_m_le_10():
    t0 = time.time()
    rows = set()
    for c in enumerate_configurations(10, e_max=3):
        if not c.compound:
            continue
        if c.curve == (1, 1, 1, 0):
            rows.add(("line-orbit-family",))
        else:
            rows.add(c.total.as_tuple() + c.curve)
    expected = {
        ("line-orbit-family",),
        (3, 0, 3, 2, 1, 0, 0, 1),
        (10, 5, 5, 4, 2, 1, 0, 1),
        (12, 0, 6, 5, 2, 0, 0, 1),
        (21, 14, 7, 6, 3, 2, 0, 1),
        (18, 6, 6, 7, 3, 1, 2, 1),
        (21, 0, 7, 8, 3, 0, 2, 1),
        (36, 27, 9, 8, 4, 3, 0, 1),
        (55, 44, 11, 10, 5, 4, 0, 1),
    }
    elapsed = time.time() - t0
    ok = rows == expected and elapsed < 10
    report(2, ok, f"9-row configuration table reproduced exactly in {elapsed:.2f}s")
    assert rows == expected
    assert elapsed < 10


def test_criterion_3_homogeneous_configurations():
    t0 = time.time()
    homo = set()
    for c in enumerate_configurations(17, e_max=3):
        h = homogeneous_form(c.total)
        if h is not None:
            homo.add(h.as_tuple())
    expected = {
        (1, 0, 2, 1), (2, 0, 5, 1), (3, 0, 3, 2),
        (12, 0, 6, 5), (21, 0, 7, 8), (48, 0, 8, 17),
    }
    elapsed = time.time() - t0
    ok = homo == expected and elapsed < 10
    report(3, ok, f"6 homogeneous configurations incl. L(48,0,8,17) in {elapsed:.2f}s")
    assert homo == expected
    assert elapsed < 10


def _table_instances(d_max: int, n_max: int):
    for d in range(0, d_max + 1):
        for m in (2, 3):
            for m0 in range(0, d + 1):
                for n in range(1, n_max + 1):
                    sys_ = L(d, m0, n, m)
                    match = lookup_special_table(sys_, with_decomposition=False)
                    if match is not None:
                        yield sys_, match


def test_criterion_4_special_table_golden():
    t0 = time.time()
    count = 0
    for sys_, match in _table_instances(20, 20):
        expect = set(laws(*sys_.as_tuple()))
        assert expect == {(match.v, match.l)}, sys_
        assert match.v == virtual_dim(sys_)
        count += 1
    oracle_checked = 0
    for sys_, match in _table_instances(10, 10):
        assert oracle_dim(sys_) == match.l, sys_
        oracle_checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 120
    report(
        4,
        ok,
        f"{count} table instances d<=20 match the (v,l) laws; "
        f"{oracle_checked} oracle-confirmed (d<=10) in {elapsed:.1f}s",
    )
    assert elapsed < 120


def test_criterion_5_theorem_desk_scale():
    t0 = time.time()
    mismatches = []
    checked = 0
    for d in range(0, 13):
        for m in (1, 2, 3):
            for m0 in range(0, d + 1):
                for n in range(0, 13):
                    sys_ = L(d, m0, n, m)
                    res = dimension(sys_)
                    got = oracle_dim(sys_)
                    checked += 1
                    if res.dim != got:
                        mismatches.append((sys_.as_tuple(), res.dim, got))
                        continue
                    special = res.dim > expected_dim(sys_)
                    in_table = bool(laws(*sys_.as_tuple()))
                    if special != in_table:
                        mismatches.append((sys_.as_tuple(), "speciality", in_table))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 1800
    report(
        5,
        ok,
        f"{checked} systems d<=12, n<=12, m<=3: classifier == oracle, "
        f"special <=> table; {len(mismatches)} mismatches in {elapsed:.0f}s",
    )
    assert not mismatches, mismatches[:10]
    assert elapsed < 1800


def test_criterion_6_closed_forms_vs_oracle():
    t0 = time.time()
    mismatches = []
    checked = 0
    for d in range(0, 15):
        for m in range(2, 6):
            for n in range(0, 15):
                for m0 in range(max(0, d - m - 1), d + 2):
                    sys_ = L(d, m0, n, m)
                    if sys_.n > 2 and sys_.m > 1 and sys_.m0 < sys_.d - sys_.m - 1:
                        continue
                    got = dim_large_m0(sys_).dim
                    want = oracle_dim(sys_)
                    checked += 1
                    if got != want:
                        mismatches.append((sys_.as_tuple(), got, want))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 600
    report(
        6,
        ok,
        f"{checked} admissible systems d<=14, m<=5: closed forms == oracle; "
        f"{len(mismatches)} mismatches in {elapsed:.0f}s",
    )
    assert not mismatches, mismatches[:10]
    assert elapsed < 600


def test_criterion_7_cremona_invariance():
    t0 = time.time()
    rng = np.random.default_rng(20209)
    checked = 0
    mismatches = []
    while checked < 1000:
        d = int(rng.integers(1, 11))
        k = int(rng.integers(3, 8))
        mults = tuple(int(x) for x in rng.integers(0, max(2, d // 2 + 2), size=k))
        td, tmults = quadratic_transform(d, mults, 0, 1, 2)
        if min(d, td, *mults, *tmults) < 0:
            continue
        before = measure_dim_mults(d, list(mults))
        after = measure_dim_mults(td, list(tmults))
        checked += 1
        if before != after:
            mismatches.append(((d, mults), (td, tmults), before, after))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 300
    report(
        7,
        ok,
        f"1000 seeded effective sequences d<=10: oracle dimension preserved; "
        f"{len(mismatches)} mismatches in {elapsed:.0f}s",
    )
    assert not mismatches
    assert elapsed < 300


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(1)
    # adjunction identity v = L^2 - g + 1 (also asserted inside invariants)
    for _ in range(500):
        d, m0, n, m = (int(x) for x in rng.integers(0, 40, size=4))
        inv = invariants(L(d, m0, n, m))
        assert inv.v == inv.self_int - inv.genus + 1

    # virtual-dimension identities on random splits (also asserted at construction)
    for _ in range(500):
        d = int(rng.integers(2, 30))
        n = int(rng.integers(2, 15))
        sys_ = L(d, int(rng.integers(0, d + 1)), n, int(rng.integers(1, 5)))
        s = split(sys_, int(rng.integers(1, d)), int(rng.integers(1, n)))
        v = virtual_dim(sys_)
        assert virtual_dim(s.LP) + virtual_dim(s.LF) == v + d - s.k
        assert virtual_dim(s.hatLP) + virtual_dim(s.LF) == v - 1

    # involution of the quadratic transformation
    for _ in range(500):
        seq = (
            int(rng.integers(0, 15)),
            tuple(int(x) for x in rng.integers(0, 8, size=5)),
        )
        twice = quadratic_transform(*quadratic_transform(*seq, 0, 1, 2), 0, 1, 2)
        assert twice == seq

    # Diophantine validity and D = 200 completeness of the class enumeration
    classes = enumerate_qh_classes(150, e_max=200)
    for c in classes:
        d, m0, n, m = c.system.as_tuple()
        assert d * d - m0 * m0 - n * m * m == -1
        assert 3 * d - m0 - n * m == 1
    enumerated = {c.system.as_tuple() for c in classes}
    missing = []
    for d in range(1, 201):
        for m0 in range(0, d + 1):
            t = 3 * d - m0 - 1
            if t <= 0:
                continue
            for m in range(1, d + 1):
                if t % m:
                    continue
                n = t // m
                if n >= 1 and d * d - m0 * m0 - n * m * m == -1:
                    if (d, m0, n, m) not in enumerated:
                        missing.append((d, m0, n, m))
    assert not missing, missing[:5]

    # fixed-part accounting on every decomposition of the d <= 12 table instances
    decomposed = 0
    for sys_, match in _table_instances(12, 12):
        decomp = find_special_decomposition(sys_)
        assert decomp is not None, sys_
        assert max(N for _, N in decomp.fixed_parts) >= 2
        assert decomp.residual_v >= 0
        assert decomp.residual_v - virtual_dim(sys_) == sum(
            c.count * N * (N - 1) // 2 for c, N in decomp.fixed_parts
        )
        decomposed += 1
    elapsed = time.time() - t0
    report(
        8,
        True,
        f"identities, involution, D=200 completeness, fixed-part accounting "
        f"on {decomposed} decompositions in {elapsed:.0f}s",
    )


def test_criterion_9_certifier_soundness():
    t0 = time.time()
    cf = Certifier(budget=10**6)
    unsound = []
    proved = 0
    for d in range(0, 13):
        for m in (1, 2, 3):
            for m0 in range(0, d + 1):
                for n in range(0, 13):
                    sys_ = L(d, m0, n, m)
                    cert = cf.certify(sys_)
                    if cert.outcome == Status.INCONCLUSIVE:
                        continue
                    proved += 1
                    if cert.outcome == Status.SPECIAL_PROVED:
                        want = cert.dim
                    else:
                        want = -1 if cert.outcome == "EmptyProved" else expected_dim(sys_)
                    if oracle_dim(sys_) != want:
                        unsound.append((sys_.as_tuple(), cert.outcome, want))
    elapsed = time.time() - t0
    ok = not unsound
    report(
        9,
        ok,
        f"{proved} certificates on the d<=12, n<=12, m<=3 sweep, "
        f"{len(unsound)} unsound in {elapsed:.0f}s",
    )
    assert not unsound, unsound[:10]
