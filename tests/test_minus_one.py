from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhplane import core, minus_one
from qhplane.core import L, SoundnessError, invariants, virtual_dim
from qhplane.cremona import reduces_to_line
from qhplane.minus_one import (
    MinusOneClass,
    candidates_for,
    enumerate_configurations,
    enumerate_qh_classes,
    find_special_decomposition,
    homogeneous_form,
    hyperbola_solutions,
    is_irreducible_class,
)
from qhplane.oracle import measure_dim


def test_defining_equations_hold():
    for c in enumerate_qh_classes(10, e_max=30):
        inv = invariants(c.system)
        assert inv.self_int == -1
        assert inv.genus == 0
        assert inv.v == 0  # every (-1)-class has v = 0


def test_known_hyperbola_rows():
    rows = {
        c.system.as_tuple(): c.witness
        for c in enumerate_qh_classes(7)
        if c.family == "Hyperbola"
    }
    assert rows[(6, 3, 7, 2)] == (5, 1)
    assert rows[(12, 8, 9, 3)] == (14, 1)
    assert rows[(20, 15, 11, 4)] == (27, 1)
    assert rows[(30, 24, 13, 5)] == (44, 1)
    assert rows[(42, 35, 15, 6)] == (65, 1)
    assert rows[(20, 3, 8, 7)] == (9, 10)
    assert rows[(27, 17, 9, 7)] == (30, 3)


def test_extremal_family_present():
    # x = (m-1)(2m+1), y = 1 always satisfies (i)-(iv)
    for m in range(2, 31):
        tuples = {c.system.as_tuple() for c in enumerate_qh_classes(m, e_max=1)}
        assert (m * m + m, m * m - 1, 2 * m + 3, m) in tuples


def test_sorted_by_m_then_d():
    cs = enumerate_qh_classes(7)
    keys = [(c.system.m, c.system.d) for c in cs]
    assert keys == sorted(keys)


def test_class_check_raises_soundness_error(monkeypatch):
    monkeypatch.setattr(minus_one, "_is_minus_one_class", lambda system: False)
    enumerate_qh_classes.cache_clear()
    with pytest.raises(SoundnessError, match=r"is not a \(-1\)-class"):
        enumerate_qh_classes(3)


def test_rejects_bad_m_max():
    for enumerate_ in (enumerate_qh_classes, enumerate_configurations):
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            enumerate_(0)
        with pytest.raises(ValueError, match="e_max must be >= 0"):
            enumerate_(3, e_max=-1)


@given(st.integers(2, 40))
def test_uv_xy_round_trip(m):
    for x, y in hyperbola_solutions(m):
        d = (x + y + 3 * m) // 2
        n = (x + 2 * y - 1) // m + 4
        u, v = 4 * d - n * m, 2 * d - n * m
        assert (u - v) // 2 == d
        assert x == u - 2 * m - 1
        assert y == 1 - m - v


def _hyperbola_solutions_by_trial_division(m):
    target = (m - 1) * (2 * m + 1)
    out = []
    for x in range(1, target + 1):
        if target % x:
            continue
        y = target // x
        if x + m < y:
            continue
        if (x - y - m) % 2:
            continue
        if (x + 2 * y - 1) % m:
            continue
        out.append((x, y))
    return out


def test_hyperbola_solutions_match_trial_division():
    for m in range(1, 301):
        assert hyperbola_solutions(m) == _hyperbola_solutions_by_trial_division(m), m
    assert hyperbola_solutions(1) == []


def test_homogeneous_cross_check():
    # the m0 <-> m symmetric condition finds no homogeneous class with m >= 2
    homo = set()
    for c in enumerate_qh_classes(100, e_max=5):
        h = homogeneous_form(c.system)
        if h is not None:
            homo.add(h.as_tuple())
    assert homo == {(1, 0, 2, 1), (2, 0, 5, 1)}


def test_enumeration_completeness_desk_scale():
    # brute-force scan of both Diophantine conditions, d <= 120 here
    # (the D = 200 scan runs in the acceptance suite)
    D = 120
    sols = set()
    for d in range(1, D + 1):
        for m0 in range(0, d + 1):
            t = 3 * d - m0 - 1  # = n*m
            if t <= 0:
                continue
            for m in range(1, d + 1):
                if t % m:
                    continue
                n = t // m
                if n >= 1 and d * d - m0 * m0 - n * m * m == -1:
                    sols.add((d, m0, n, m))
    m_max = max(s[3] for s in sols)
    enum = {
        c.system.as_tuple() for c in enumerate_qh_classes(m_max, e_max=2 * D)
    }
    assert sols <= enum


# -- configurations ----------------------------------------------------------


def test_configuration_table_m_le_10():
    compound = {
        (c.curve, c.n)
        for c in enumerate_configurations(10, e_max=4)
        if c.compound and c.mu2 >= 1
    }
    assert compound == {
        ((1, 0, 0, 1), 3),
        ((2, 1, 0, 1), 5),
        ((2, 0, 0, 1), 6),
        ((3, 2, 0, 1), 7),
        ((3, 1, 2, 1), 6),
        ((3, 0, 2, 1), 7),
        ((4, 3, 0, 1), 9),
        ((5, 4, 0, 1), 11),
    }
    # plus the family of e lines through p0
    family = {
        c.n
        for c in enumerate_configurations(10, e_max=4)
        if c.compound and c.curve == (1, 1, 1, 0)
    }
    assert family == {2, 3, 4}
    totals = {
        c.total.as_tuple()
        for c in enumerate_configurations(10, e_max=4)
        if c.curve == (1, 1, 1, 0)
    }
    assert {(2, 2, 2, 1), (3, 3, 3, 1), (4, 4, 4, 1)} <= totals


def test_configuration_invariants():
    for c in enumerate_configurations(10, e_max=6):
        n, delta, mu0, mu1, mu2 = c.n, c.delta, c.mu0, c.mu1, c.mu2
        # each member is a (-1)-class of genus 0
        assert delta**2 - mu0**2 - mu1**2 - (n - 1) * mu2**2 == -1
        assert 3 * delta - mu0 - mu1 - (n - 1) * mu2 == 1
        if c.compound and mu2 >= 1:
            assert (mu1 - mu2) ** 2 == 1
            # distinct members are disjoint
            assert delta**2 - mu0**2 - 2 * mu1 * mu2 - (n - 2) * mu2**2 == 0
            assert c.total.as_tuple() == (
                n * delta, n * mu0, n, mu1 + (n - 1) * mu2
            )


def test_homogeneous_configurations():
    homo = set()
    for c in enumerate_configurations(17, e_max=3):
        h = homogeneous_form(c.total)
        if h is not None:
            homo.add(h.as_tuple())
    assert homo == {
        (1, 0, 2, 1),
        (2, 0, 5, 1),
        (3, 0, 3, 2),
        (12, 0, 6, 5),
        (21, 0, 7, 8),
        (48, 0, 8, 17),
    }


def test_members_meet_the_scan_bound():
    # _minus_one_curves(n, m_max) scans delta <= (m_max + 1) // 2 because
    # every member of degree delta has total multiplicity m >= 2 delta - 1
    for delta in range(1, 40):
        for mu0, mu1, mu2, n in _minus_one_curves_by_search(delta):
            if n >= 3:
                assert mu1 + (n - 1) * mu2 >= 2 * delta - 1, (delta, mu0, mu1, mu2, n)


def _minus_one_curves_by_search(delta):
    for mu0 in range(0, delta + 1):
        for mu2 in range(1, delta + 1):
            for mu1 in (mu2 - 1, mu2 + 1):
                num = delta**2 - mu0**2 - 2 * mu1 * mu2
                if mu1 < 0 or num % mu2**2:
                    continue
                n = num // mu2**2 + 2
                if n < 2:
                    continue
                # self-intersection -1 ...
                if delta**2 - mu0**2 - mu1**2 - (n - 1) * mu2**2 != -1:
                    continue
                # ... and genus zero.
                if 3 * delta - mu0 - mu1 - (n - 1) * mu2 != 1:
                    continue
                yield mu0, mu1, mu2, n


def test_minus_one_curves_match_search():
    # the search also finds (1; 1, 0, 1) on n = 2 points, the two lines
    # through p0, which the configurations hold as (1; 1, 1, 0)
    assert (1, 0, 1, 2) in _minus_one_curves_by_search(1)
    # a member of degree delta has total multiplicity at most 3 delta - 1,
    # so n <= 3 delta and m_max = 3 D - 1 holds every orbit with delta <= D
    D = 150
    searched = sorted(
        (delta, *t) for delta in range(1, D + 1)
        for t in _minus_one_curves_by_search(delta) if t[3] >= 3
    )
    solved = []
    for n in range(1, 3 * D + 1):
        on_n = list(minus_one._minus_one_curves(n, 3 * D - 1))
        assert on_n == sorted(on_n), n
        solved += [(*curve, n) for curve in on_n if curve[0] <= D]
    assert sorted(solved) == searched


def test_classes_on_match_the_listing_by_m():
    # the per-n solve against hyperbola_solutions(m) for every m <= 300,
    # through enumerate_qh_classes, regrouped by n; the pencil reaches n = 800
    by_n = defaultdict(list)
    for c in enumerate_qh_classes(300, e_max=400):
        by_n[c.system.n].append((c.system.d, c.system.m0, c.system.m))
    assert max(by_n) == 800
    for n in range(0, 801):
        assert minus_one._classes_on(n, 300) == by_n.get(n, []), n


def test_two_lines_orbit_truncated_by_e_max():
    # On three points (p0 and two more) the only (-1)-curves are the
    # exceptional curves and the lines, so the one compound orbit on n = 2
    # is the two lines through p0: a member of the e_max-truncated family,
    # always spelled (1; 1, 1, 0).
    for m_max in (2, 10):
        for e_max in range(1, 5):
            on_two = [
                c.curve
                for c in enumerate_configurations(m_max, e_max=e_max)
                if c.compound and c.n == 2
            ]
            assert on_two == ([(1, 1, 1, 0)] if e_max >= 2 else []), (m_max, e_max)


def test_three_lines_configuration():
    # L(3,0,3,2): each of the 3 points lies on 2 of the 3 lines
    cfgs = [
        c
        for c in enumerate_configurations(2, e_max=1)
        if c.total.as_tuple() == (3, 0, 3, 2)
    ]
    assert len(cfgs) == 1
    c = cfgs[0]
    assert c.curve == (1, 0, 0, 1) and c.count == 3


# -- irreducibility ----------------------------------------------------------


def test_extremal_classes_irreducible():
    for m in range(2, 7):
        c = MinusOneClass(
            L(m * m + m, m * m - 1, 2 * m + 3, m), family="Hyperbola"
        )
        ok, cert = is_irreducible_class(c)
        assert ok, (m, cert)


def test_line_is_irreducible():
    ok, cert = is_irreducible_class(MinusOneClass(L(1, 1, 1, 1), family="Line"))
    assert ok
    assert cert["trace"] == []


@pytest.mark.parametrize("e", [2, 50, 500])
def test_line_pencil_class_reduces_in_e_minus_1_steps(e):
    # each step lowers the degree by one; no step cap cuts the reduction off
    c = MinusOneClass(L(e, e - 1, 2 * e, 1), family="LinePencil", e=e)
    ok, cert = is_irreducible_class(c)
    assert ok
    assert len(cert["trace"]) == e - 1
    assert all(step.keys() == {"pivot"} for step in cert["trace"])


def test_pencil_reduces_to_line_in_e_minus_1_steps():
    # the induction that lets candidates_for accept the pencil by its family
    for e in range(1, 301):
        ok, trace = reduces_to_line(e, (e - 1,) + (1,) * (2 * e))
        assert ok and len(trace) == e - 1, e


def test_27_17_9_7_not_irreducible():
    ok, cert = is_irreducible_class(
        MinusOneClass(L(27, 17, 9, 7), family="Hyperbola")
    )
    assert not ok
    blocker = cert["blocking_class"]
    assert blocker["class"] == (12, 8, 9, 3)
    assert blocker["intersection"] == -1
    assert blocker["residual"] == (15, 9, 9, 4)
    assert blocker["residual_v"] == 0


def test_irreducibility_rejects_non_class():
    with pytest.raises(ValueError):
        is_irreducible_class(MinusOneClass(L(3, 0, 3, 1), family="Line"))


# -- decompositions ----------------------------------------------------------


def test_decomposition_examples():
    d = find_special_decomposition(L(4, 2, 2, 3))
    assert d is not None
    [(cand, N)] = d.fixed_parts
    assert (cand.total.as_tuple(), N) == ((1, 0, 2, 1), 2)
    assert d.residual == (2, 2, 2, 1)
    assert d.residual_v - virtual_dim(L(4, 2, 2, 3)) == 1

    d = find_special_decomposition(L(6, 0, 5, 3))
    assert d is not None
    [(cand, N)] = d.fixed_parts
    assert (cand.total.as_tuple(), N) == ((2, 0, 5, 1), 3)

    assert find_special_decomposition(L(5, 0, 4, 2)) is None
    # really non-special: measured dim equals e = 8
    assert measure_dim(L(5, 0, 4, 2)).dim == virtual_dim(L(5, 0, 4, 2)) == 8


def test_decomposition_lemma_accounting():
    # fixed-part accounting: disjoint fixed curves, exact dimension bookkeeping
    samples = [
        L(4, 0, 5, 2), L(6, 0, 5, 3), L(4, 2, 2, 3), L(8, 6, 4, 3),
        L(10, 10, 3, 2), L(12, 11, 4, 3), L(9, 9, 3, 3),
    ]
    for sys_ in samples:
        d = find_special_decomposition(sys_)
        assert d is not None, sys_
        assert max(N for _, N in d.fixed_parts) >= 2
        assert d.residual_v >= 0
        total_curves = sum(c.count * N * (N - 1) // 2 for c, N in d.fixed_parts)
        assert d.residual_v - virtual_dim(sys_) == total_curves


def test_decomposition_agrees_with_oracle():
    for sys_ in [L(4, 0, 5, 2), L(6, 0, 5, 3), L(4, 2, 2, 3), L(8, 6, 4, 3)]:
        d = find_special_decomposition(sys_)
        assert d is not None
        assert measure_dim(sys_).dim == d.residual_v


def test_candidates_cover_both_kinds():
    counts = {c[4] for c in candidates_for(L(6, 0, 5, 3))}
    assert counts == {1, 5}


def test_candidates_are_int_tuples_singles_first():
    cands = candidates_for(L(6, 0, 5, 3))
    assert all(len(c) == 5 and all(type(x) is int for x in c) for c in cands)
    counts = [c[4] for c in cands]
    assert counts == sorted(counts)
    assert cands is candidates_for(L(9, 2, 5, 3))  # the cached tuple itself
    # the conic through the five points, and the five lines through p0
    assert {(2, 0, 1, 1, 1), (1, 1, 1, 0, 5)} <= set(cands)


def _candidates_by_filtering(n, m):
    """The candidates as they were built before the per-n solve: every
    configuration with total multiplicity <= m, kept on n points, the single
    curves checked by Cremona reduction."""
    configs = enumerate_configurations(max(1, m), e_max=max(50, n))
    on_n = [c for c in configs if c.n == n]
    singles = [
        c for c in on_n
        if not c.compound
        and reduces_to_line(c.delta, (c.mu0, c.mu1) + (c.mu2,) * (n - 1))[0]
    ]
    return tuple(
        (c.delta, c.mu0, c.mu1, c.mu2, c.count)
        for c in singles + [c for c in on_n if c.compound]
    )


def test_candidates_match_the_filtered_configurations():
    for n in range(1, 41):
        for m in range(1, 41):
            assert candidates_for(L(10, 0, n, m)) == _candidates_by_filtering(n, m), (n, m)


def test_candidates_build_no_system_and_enumerate_nothing(monkeypatch):
    system = L(2000, 0, 2003, 1000)

    def refuse(*args, **kwargs):
        raise AssertionError("candidates_for built a system or listed classes by m")

    monkeypatch.setattr(core.QuasiHomogeneousSystem, "__post_init__", refuse)
    monkeypatch.setattr(minus_one, "enumerate_qh_classes", refuse)
    monkeypatch.setattr(minus_one, "enumerate_configurations", refuse)
    minus_one._candidates.cache_clear()
    # the m = 1000 extremal class, of degree 1,001,000 above the input cap,
    # is a plain tuple
    assert (1001000, 999999, 1000, 1000, 1) in candidates_for(system)


def test_fixed_part_accounting_raises_soundness_error(monkeypatch):
    monkeypatch.setattr(minus_one, "virtual_dim", lambda s: core.virtual_dim(s) + 1)
    with pytest.raises(SoundnessError, match="fixed-part accounting"):
        find_special_decomposition(L(4, 2, 2, 3))
