from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhplane import core
from qhplane.core import (
    L,
    QuasiHomogeneousSystem,
    SoundnessError,
    expected_dim,
    invariants,
    trinomial_dim,
    virtual_dim,
)
from qhplane.cremona import few_points_dim

systems = st.builds(
    L,
    st.integers(0, 60),
    st.integers(0, 60),
    st.integers(0, 20),
    st.integers(0, 20),
)


def test_virtual_dim_formula():
    assert virtual_dim(L(6, 0, 5, 3)) == 27 - 0 - 30
    assert virtual_dim(L(4, 0, 5, 2)) == 14 - 15
    assert expected_dim(L(4, 0, 5, 2)) == -1


@given(systems)
def test_invariants_identity(sys_):
    # v = L^2 - g + 1 (checked inside invariants as well)
    inv = invariants(sys_)
    assert inv.v == inv.self_int - inv.genus + 1
    assert inv.e == max(-1, inv.v)


def test_invariants_raise_soundness_error(monkeypatch):
    # a virtual dimension off by one breaks v = L^2 - g + 1
    monkeypatch.setattr(
        core, "virtual_dim", lambda s: core.lattice_virtual_dim(*s.as_tuple()) + 1
    )
    with pytest.raises(SoundnessError, match=r"L\^2 - g \+ 1"):
        invariants(L(6, 3, 7, 2))


def test_self_intersection_and_genus():
    inv = invariants(L(6, 3, 7, 2))
    assert inv.self_int == 36 - 9 - 28 == -1
    assert inv.genus == 0


def test_normalization():
    assert L(5, 2, 0, 7).as_tuple() == (5, 2, 0, 0)
    assert L(5, 2, 7, 0).as_tuple() == (5, 2, 0, 0)
    assert L(3, 1, 2, 2) == QuasiHomogeneousSystem(3, 1, 2, 2)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        L(-1, 0, 0, 0)
    with pytest.raises(TypeError):
        L(1.5, 0, 0, 0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        L(10**7, 0, 0, 0)


def test_canonical_key_sorts_two_points():
    assert core.canonical_key(5, 1, 1, 3) == (5, 3, 1, 1)
    assert core.canonical_key(5, 3, 1, 1) == (5, 3, 1, 1)
    assert core.canonical_key(5, 3, 2, 1) == (5, 3, 2, 1)
    # one key per system: L(10,0,1,3) is L(10,3), and L(5,0,0,3) is L(5,0)
    assert core.canonical_key(10, 0, 1, 3) == (10, 3, 0, 0)
    assert core.canonical_key(5, 0, 0, 3) == (5, 0, 0, 0)


def test_multiplicities():
    assert L(4, 3, 2, 1).multiplicities() == [3, 1, 1]


def test_simple_points_impose_independent_conditions():
    # n general simple points on L(d, m0): n * m conditions, none when m = 0
    for d in range(0, 30):
        for m0 in range(0, 35):
            one_point = trinomial_dim(d, m0, 0, 0)
            for n in range(0, 40):
                for m in (0, 1):
                    want = max(-1, one_point - n * m)
                    assert few_points_dim(d, m0, n, m) == want, (d, m0, n, m)


def _rows_trinomial_dim(d, m0, m1, m2):
    """Reference count: the surviving monomials x^a y^b z^c, row by row in a."""
    if d < 0:
        return -1
    a_max, b_max, c_max = d - m0, d - m1, d - m2
    if a_max < 0 or b_max < 0 or c_max < 0:
        return -1
    count = 0
    for a in range(0, a_max + 1):
        # b + c = d - a with b <= b_max, c <= c_max.
        lo = max(0, d - a - c_max)
        hi = min(b_max, d - a)
        if hi >= lo:
            count += hi - lo + 1
    return count - 1


def test_trinomial_dim_matches_the_row_count():
    for m2, m1, m0 in combinations_with_replacement(range(33), 3):
        for d in range(-2, 31):
            assert trinomial_dim(d, m0, m1, m2) == _rows_trinomial_dim(d, m0, m1, m2)
    d = 10**5
    for mults in [(0, 0, 0), (d, 0, 0), (d // 2, d // 2, d // 2), (70000, 60000, 50000),
                  (d, d, d), (d - 1, d - 1, 1), (99999, 50001, 50000)]:
        assert trinomial_dim(d, *mults) == _rows_trinomial_dim(d, *mults), mults


def test_trinomial_dim_examples():
    assert trinomial_dim(1, 0, 1, 1) == 0  # line through two points
    assert trinomial_dim(2, 2, 2, 0) == 0  # the doubled line through both
    assert trinomial_dim(2, 2, 2, 1) == -1
    assert trinomial_dim(2, 0, 2, 2) == 0  # doubled line
    assert trinomial_dim(5, 0, 0, 0) == 20
    assert trinomial_dim(-1, 0, 0, 0) == -1
    with pytest.raises(ValueError, match="non-negative"):
        trinomial_dim(2, 0, -1, 0)


@given(st.integers(0, 15), st.integers(0, 15))
def test_trinomial_single_point_is_non_special(d, m0):
    # one fat point never gives dependent conditions
    got = trinomial_dim(d, m0, 0, 0)
    if m0 > d:
        assert got == -1
    else:
        assert got == max(-1, virtual_dim(L(d, m0)))


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_trinomial_symmetric(d, a, b, c):
    assert trinomial_dim(d, a, b, c) == trinomial_dim(d, c, a, b)
