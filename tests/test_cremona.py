import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhplane.core import L, expected_dim, virtual_dim
from qhplane.cremona import (
    dim_few_points,
    dim_large_m0,
    dim_m0_eq_d_minus_m,
    dim_m0_eq_d_minus_m_minus_1,
    dim_m0_ge_d_minus_m,
    quadratic_transform,
    reduces_to_line,
)
from qhplane.minus_one import enumerate_qh_classes
from qhplane.oracle import measure_dim_mults


def sequence_of(system):
    return system.d, system.multiplicities()


def test_transform_example():
    d, mults = quadratic_transform(*sequence_of(L(12, 8, 9, 3)), 0, 1, 2)
    assert d == 2 * 12 - 8 - 3 - 3 == 10
    assert mults == (6, 1, 1) + (3,) * 7


def test_transform_pencil_family():
    e = 5
    d, mults = quadratic_transform(*sequence_of(L(e, e - 1, 2 * e, 1)), 0, 1, 2)
    assert (d, tuple(filter(None, mults))) == (e - 1, (e - 2,) + (1,) * (2 * e - 2))


def test_transform_zero_sequence_fixed():
    assert quadratic_transform(0, (0, 0, 0), 0, 1, 2) == (0, (0, 0, 0))


def test_transform_rejects_repeated_indices():
    with pytest.raises(ValueError):
        quadratic_transform(3, (1, 1, 1), 0, 0, 1)
    with pytest.raises(IndexError):
        quadratic_transform(3, (1, 1, 1), 0, 1, 5)
    with pytest.raises(IndexError):
        quadratic_transform(3, (1, 1, 1), -1, 1, 2)


sequences = st.tuples(
    st.integers(0, 12),
    st.lists(st.integers(0, 6), min_size=3, max_size=7).map(tuple),
)


@given(sequences)
def test_transform_is_involution(s):
    once = quadratic_transform(*s, 0, 1, 2)
    assert quadratic_transform(*once, 0, 1, 2) == s


@given(sequences)
def test_transform_preserves_virtual_dim(s):
    def v(d, mults):
        return d * (d + 3) // 2 - sum(m * (m + 1) // 2 for m in mults)

    assert v(*quadratic_transform(*s, 0, 1, 2)) == v(*s)


@settings(max_examples=30, deadline=None)
@given(sequences)
def test_transform_preserves_oracle_dim(s):
    (d, mults), (td, tmults) = s, quadratic_transform(*s, 0, 1, 2)
    if min(d, td, *mults, *tmults) < 0:
        return
    assert measure_dim_mults(d, list(mults)) == measure_dim_mults(td, list(tmults))


def test_reduces_to_line():
    ok, _ = reduces_to_line(*sequence_of(L(1, 1, 1, 1)))
    assert ok
    ok, _ = reduces_to_line(*sequence_of(L(2, 0, 5, 1)))
    assert ok
    ok, trace = reduces_to_line(*sequence_of(L(27, 17, 9, 7)))
    assert not ok
    assert trace[-1]["fail"]


def test_reduces_to_line_failure_exits():
    # a negative entry already in the initial state
    assert reduces_to_line(3, (2, -1, 1)) == (
        False, [{"state": "(3; 2, -1, 1)", "fail": "negative entry"}]
    )
    # the pivot (0, 1, 2) maps (3; 1, 1, 1) to a degree-3 state
    assert reduces_to_line(3, (1, 1, 1)) == (
        False, [{"state": "(3; 1, 1, 1)", "fail": "degree does not decrease"}]
    )
    # a step into a state with negative pivot entries
    assert reduces_to_line(5, (3, 3, 3)) == (
        False,
        [{"pivot": (0, 1, 2)}, {"state": "(1; -1, -1, -1)", "fail": "negative entry"}],
    )
    # a step into (1; 0, 0, 0), whose next pivot does not lower the degree
    assert reduces_to_line(2, (1, 1, 1)) == (
        False,
        [{"pivot": (0, 1, 2)}, {"state": "(1; )", "fail": "degree does not decrease"}],
    )


def _reference_reduction(degree, mults):
    """The greedy reduction written out on plain tuples: pivots by
    (-entry, index), every entry checked for a negative after every step."""

    def show(d, ms):
        return f"({d}; {', '.join(map(str, ms))})"

    trace = []
    d, ms = degree, tuple(x for x in mults if x != 0)
    while True:
        if d == 1 and sorted(ms) == [1, 1]:
            return True, trace
        if d < 1 or any(x < 0 for x in ms):
            trace.append({"state": show(d, ms), "fail": "negative entry"})
            return False, trace
        padded = list(ms) + [0] * max(0, 3 - len(ms))
        i, j, k = sorted(range(len(padded)), key=lambda t: (-padded[t], t))[:3]
        mi, mj, mk = padded[i], padded[j], padded[k]
        nd = 2 * d - mi - mj - mk
        nxt = list(padded)
        nxt[i], nxt[j], nxt[k] = d - mj - mk, d - mi - mk, d - mi - mj
        if nd >= d:
            trace.append({"state": show(d, ms), "fail": "degree does not decrease"})
            return False, trace
        trace.append({"pivot": (i, j, k)})
        if nd < 1 or any(x < 0 for x in nxt):
            trace.append({"state": show(nd, nxt), "fail": "negative entry"})
            return False, trace
        d, ms = nd, tuple(x for x in nxt if x != 0)


# entries drawn from a small palette plus zero, so ties and zeros are common
_tied_entries = st.lists(st.integers(-1, 12), min_size=1, max_size=3).flatmap(
    lambda palette: st.lists(st.sampled_from(palette + [0]), max_size=9)
)


@settings(max_examples=500, deadline=None)
@given(st.integers(-1, 25), _tied_entries | st.lists(st.integers(-1, 12), max_size=9))
def test_reduces_to_line_matches_reference(degree, mults):
    assert reduces_to_line(degree, mults) == _reference_reduction(degree, mults)


def test_reduces_to_line_matches_reference_on_classes():
    classes = enumerate_qh_classes(30)
    reached = 0
    for c in classes:
        got = reduces_to_line(*sequence_of(c.system))
        assert got == _reference_reduction(c.system.d, c.system.multiplicities())
        reached += got[0]
    assert 0 < reached < len(classes)


def test_pivots_replay_the_reduction():
    d, mults = sequence_of(L(56, 48, 17, 7))
    ok, trace = reduces_to_line(d, mults)
    assert ok and trace
    mults = tuple(filter(None, mults))
    for step in trace:
        padded = mults + (0,) * max(0, 3 - len(mults))
        d, mults = quadratic_transform(d, padded, *step["pivot"])
        mults = tuple(filter(None, mults))
    assert d == 1 and sorted(mults) == [1, 1]


# -- closed forms -----------------------------------------------------------


def test_dim_m0_eq_d_minus_m():
    assert dim_m0_eq_d_minus_m(L(6, 4, 6, 2)).dim == 0
    assert dim_m0_eq_d_minus_m(L(6, 4, 6, 2)).status.value == "SpecialProved"
    assert dim_m0_eq_d_minus_m(L(9, 6, 6, 3)).dim == 0
    assert dim_m0_eq_d_minus_m(L(7, 4, 4, 3)).dim == 2
    with pytest.raises(ValueError):
        dim_m0_eq_d_minus_m(L(6, 3, 6, 2))


def test_dim_m0_ge_d_minus_m():
    assert dim_m0_ge_d_minus_m(L(4, 4, 1, 3)).dim == 1
    assert dim_m0_ge_d_minus_m(L(4, 2, 2, 3)).dim == 0
    assert dim_m0_ge_d_minus_m(L(5, 6, 3, 2)).dim == -1


def test_dim_m0_eq_d_minus_m_minus_1():
    assert dim_m0_eq_d_minus_m_minus_1(L(4, 0, 2, 3)).dim == 3
    assert dim_m0_eq_d_minus_m_minus_1(L(6, 2, 4, 3)).dim == 1
    res = dim_m0_eq_d_minus_m_minus_1(L(8, 4, 5, 3))
    assert res.dim == 4
    assert res.status.value == "NonSpecialProved"


def test_dim_few_points():
    res = dim_few_points(L(4, 1, 2, 3))
    assert res.dim == 2
    assert res.status.value == "SpecialProved"
    assert dim_few_points(L(5, 3, 1, 2)).dim == 11
    assert dim_few_points(L(3, 2, 0, 0)).dim == 6


def test_dim_large_m0_dispatch():
    for sys_, want in [
        (L(6, 4, 6, 2), 0),
        (L(9, 6, 6, 3), 0),
        (L(7, 4, 4, 3), 2),
        (L(4, 4, 1, 3), 1),
        (L(4, 2, 2, 3), 0),
        (L(5, 6, 3, 2), -1),
        (L(4, 0, 2, 3), 3),
        (L(6, 2, 4, 3), 1),
        (L(8, 4, 5, 3), 4),
        (L(4, 1, 2, 3), 2),
    ]:
        assert dim_large_m0(sys_).dim == want, sys_


def test_dim_large_m0_rejects_small_m0():
    with pytest.raises(ValueError):
        dim_large_m0(L(9, 1, 6, 3))


def test_m0_eq_d_minus_m_recursion_identity():
    # l(d, d-m, n, m) = l(d-m, d-2m, n-2, m): the subsystem stays in the
    # m0 = d - m family, so the recursion terminates in the closed forms
    for m in range(2, 6):
        for d in range(2 * m, 21):
            for n in range(2, 13):
                lhs = dim_m0_eq_d_minus_m(L(d, d - m, n, m)).dim
                rhs = dim_large_m0(L(d - m, d - 2 * m, n - 2, m)).dim
                assert lhs == rhs, (d, m, n)
