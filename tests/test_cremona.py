import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhplane.core import L, expected_dim, virtual_dim
from qhplane.cremona import (
    MultiplicitySequence,
    dim_few_points,
    dim_large_m0,
    dim_m0_eq_d_minus_m,
    dim_m0_eq_d_minus_m_minus_1,
    dim_m0_ge_d_minus_m,
    quadratic_transform,
    reduces_to_line,
    sequence_of,
)
from qhplane.oracle import measure_dim_mults


def test_transform_example():
    s = sequence_of(L(12, 8, 9, 3))
    t = quadratic_transform(s, 0, 1, 2)
    assert t.degree == 2 * 12 - 8 - 3 - 3 == 10
    assert t.mults == (6, 1, 1) + (3,) * 7


def test_transform_pencil_family():
    e = 5
    s = sequence_of(L(e, e - 1, 2 * e, 1))
    t = quadratic_transform(s, 0, 1, 2).dropped_zeros()
    assert (t.degree, t.mults) == (e - 1, (e - 2,) + (1,) * (2 * e - 2))


def test_transform_zero_sequence_fixed():
    s = MultiplicitySequence(0, (0, 0, 0))
    assert quadratic_transform(s, 0, 1, 2) == s


def test_transform_rejects_repeated_indices():
    s = MultiplicitySequence(3, (1, 1, 1))
    with pytest.raises(ValueError):
        quadratic_transform(s, 0, 0, 1)
    with pytest.raises(IndexError):
        quadratic_transform(s, 0, 1, 5)


sequences = st.builds(
    MultiplicitySequence,
    st.integers(0, 12),
    st.lists(st.integers(0, 6), min_size=3, max_size=7).map(tuple),
)


@given(sequences)
def test_transform_is_involution(s):
    t = quadratic_transform(quadratic_transform(s, 0, 1, 2), 0, 1, 2)
    assert (t.degree, t.mults) == (s.degree, s.mults)


@given(sequences)
def test_transform_preserves_virtual_dim(s):
    def v(seq):
        d = seq.degree
        return d * (d + 3) // 2 - sum(m * (m + 1) // 2 for m in seq.mults)

    assert v(quadratic_transform(s, 0, 1, 2)) == v(s)


@settings(max_examples=30, deadline=None)
@given(sequences)
def test_transform_preserves_oracle_dim(s):
    t = quadratic_transform(s, 0, 1, 2)
    if not (s.is_effective and t.is_effective):
        return
    before = measure_dim_mults(s.degree, list(s.mults))
    after = measure_dim_mults(t.degree, list(t.mults))
    assert before == after


def test_reduces_to_line():
    ok, _ = reduces_to_line(sequence_of(L(1, 1, 1, 1)))
    assert ok
    ok, _ = reduces_to_line(sequence_of(L(2, 0, 5, 1)))
    assert ok
    ok, trace = reduces_to_line(sequence_of(L(27, 17, 9, 7)))
    assert not ok
    assert trace[-1]["fail"]


def test_reduces_to_line_failure_exits():
    # a negative entry already in the initial state
    assert reduces_to_line(MultiplicitySequence(3, (2, -1, 1))) == (
        False, [{"state": "(3; 2, -1, 1)", "fail": "negative entry"}]
    )
    # the pivot (0, 1, 2) maps (3; 1, 1, 1) to a degree-3 state
    assert reduces_to_line(MultiplicitySequence(3, (1, 1, 1))) == (
        False, [{"state": "(3; 1, 1, 1)", "fail": "degree does not decrease"}]
    )


def test_pivots_replay_the_reduction():
    s = sequence_of(L(56, 48, 17, 7))
    ok, trace = reduces_to_line(s)
    assert ok and trace
    cur = s.dropped_zeros()
    for step in trace:
        padded = cur.mults + (0,) * max(0, 3 - len(cur.mults))
        cur = quadratic_transform(
            MultiplicitySequence(cur.degree, padded), *step["pivot"]
        ).dropped_zeros()
    assert cur.degree == 1 and sorted(cur.mults) == [1, 1]


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
