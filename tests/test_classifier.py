import pytest

from qhplane import classifier
from qhplane.classifier import dimension, is_special, lookup_special_table
from qhplane.core import L, Status, expected_dim, virtual_dim
from qhplane.cremona import dim_large_m0
from qhplane.oracle import measure_dim
from special_laws import laws


def _instantiate_table(limit: int):
    """All concrete systems that some table law matches with d <= limit,
    each with its (v, l) list."""
    out = []
    for d in range(0, limit + 1):
        for m in (2, 3):
            for m0 in range(0, d + 1):
                for n in range(1, limit + 1):
                    hits = laws(d, m0, n, m)
                    if hits:
                        out.append((L(d, m0, n, m), hits))
    return out


def test_lookup_examples():
    m = lookup_special_table(L(10, 9, 4, 3), with_decomposition=False)
    assert (m.v, m.l) == (2 * 10 - 24, 2 * 10 - 20) == (-4, 0)
    m = lookup_special_table(L(9, 9, 3, 3), with_decomposition=False)
    assert (m.v, m.l) == (-9, 0)
    assert lookup_special_table(L(5, 0, 4, 2)) is None
    with pytest.raises(ValueError):
        lookup_special_table(L(5, 0, 4, 4))


def test_table_matcher_completeness():
    # re-derive each family membership independently and compare
    for sys_, hits in _instantiate_table(30):
        values = set(hits)
        assert len(values) == 1, (sys_, hits)
        v, l = values.pop()
        assert v == virtual_dim(sys_)
        assert l > expected_dim(sys_)


def test_fixed_rows_found():
    for tup, vl in [
        ((4, 0, 5, 2), (-1, 0)),
        ((4, 0, 2, 3), (2, 3)),
        ((6, 0, 5, 3), (-3, 0)),
        ((6, 2, 4, 3), (0, 1)),
        ((6, 4, 6, 2), (-1, 0)),  # L(2e,2e-2,2e,2), e = 3
        ((7, 4, 4, 3), (1, 2)),  # L(3e+1,3e-2,2e,3), e = 2
    ]:
        m = lookup_special_table(L(*tup), with_decomposition=False)
        assert m is not None and (m.v, m.l) == vl, tup


def test_table_entries_oracle_check():
    for sys_, hits in _instantiate_table(9):
        l = hits[0][1]
        assert measure_dim(sys_).dim == l, sys_


def test_table_decompositions_exist():
    for sys_ in (L(4, 0, 5, 2), L(6, 4, 6, 2), L(8, 8, 3, 2), L(12, 11, 4, 3)):
        m = lookup_special_table(sys_)
        assert m is not None and m.decomposition is not None
        assert m.decomposition.residual_v == m.l


def test_dimension_examples():
    res = dimension(L(4, 0, 2, 3))
    assert (res.dim, res.status) == (3, Status.SPECIAL_PROVED)
    res = dimension(L(10, 0, 2, 10))
    assert res.dim == 0  # the line counted with multiplicity 10
    res = dimension(L(7, 5, 4, 2))
    assert res.status in (Status.NON_SPECIAL_PROVED, Status.SPECIAL_PROVED)
    assert res.dim == measure_dim(L(7, 5, 4, 2)).dim
    res = dimension(L(5, 0, 6, 2))
    assert (res.dim, res.status) == (2, Status.NON_SPECIAL_PROVED)


def test_dimension_m_ge_4_statuses():
    # proved regimes keep a proved status
    assert dimension(L(9, 5, 2, 4)).status != Status.CONJECTURAL
    assert dimension(L(9, 6, 5, 4)).status != Status.CONJECTURAL  # m0 = d-m+1
    # away from them the answer is conjectural
    res = dimension(L(10, 2, 8, 4))
    assert res.status == Status.CONJECTURAL
    assert res.dim == expected_dim(L(10, 2, 8, 4))


def test_conjectural_prediction_from_decomposition():
    # L(10,5,5,4): the (-1)-configuration (2;1,0,1^4) forces a fixed part
    res = dimension(L(12, 6, 5, 4))
    assert res.status == Status.CONJECTURAL


def test_special_iff_decomposition_m_le_3():
    from qhplane.minus_one import find_special_decomposition

    for d in range(1, 11):
        for m in (2, 3):
            for m0 in range(0, d + 1):
                for n in range(3, 11):
                    decomp = find_special_decomposition(L(d, m0, n, m))
                    assert bool(laws(d, m0, n, m)) == (decomp is not None), (d, m0, n, m)


def test_section6_path_agrees_with_theorem_path():
    # for m in {2,3} and m0 >= d-m-1, the closed forms (few points for
    # n <= 2) give the table's l on its members and e on every other system
    for d in range(1, 61):
        for m in (2, 3):
            for m0 in range(max(0, d - m - 1), d + 1):
                for n in range(1, 61):
                    sys_ = L(d, m0, n, m)
                    want = [l for _, l in laws(d, m0, n, m)] or [expected_dim(sys_)]
                    assert [dim_large_m0(sys_).dim] == want, sys_


def test_lookup_matches_the_laws():
    # a system is matched exactly when some law holds, with its (v, l), on
    # the 1,032 members of this box; the two members outside the few-point
    # and large-m0 strata answer dim 0
    members = 0
    for d in range(0, 41):
        for m0 in range(0, d + 3):
            for n in range(0, 41):
                for m in range(0, 4):
                    sys_ = L(d, m0, n, m)
                    got = lookup_special_table(sys_, with_decomposition=False)
                    want = laws(*sys_.as_tuple())
                    assert ([(got.v, got.l)] if got else []) == want, (d, m0, n, m)
                    members += bool(want)
    assert members == 1032
    for tup in classifier.SPORADIC:
        res = dimension(L(*tup))
        assert (res.dim, res.status) == (0, Status.SPECIAL_PROVED), tup
        assert res.certificate == {"base": "sporadic"}
        assert measure_dim(L(*tup)).dim == 0, tup


def test_table_overlap_with_d_eq_m0():
    # l(d,d,n,m) = max(-1, d - n*m) agrees with the L(d,d,e,m) families
    for d in range(2, 20):
        for m in (2, 3):
            for n in range(1, 8):
                m_ = lookup_special_table(L(d, d, n, m), with_decomposition=False)
                if m_ is not None:
                    assert m_.l == max(-1, d - n * m)


def test_is_special():
    special, res = is_special(L(4, 0, 5, 2))
    assert special and res.dim == 0
    special, res = is_special(L(5, 0, 4, 2))
    assert not special


def test_tuple_dispatch_matches_the_normalised_system():
    # every (d, m0, n, m) with d <= 30, m0 <= d + 2, n <= 20 and m <= 8: the
    # tuple dispatch gives the raw tuple the dim and certificate it gives the
    # system's tuple, or None for both, also on the tuples that the system
    # normalises (n = 0 or m = 0 alone)
    for d in range(0, 31):
        for m0 in range(0, d + 3):
            for n in range(0, 21):
                for m in range(0, 9):
                    raw, system = {}, {}
                    got = classifier.base_case_dim(d, m0, n, m, raw)
                    want = classifier.base_case_dim(*L(d, m0, n, m).as_tuple(), system)
                    assert (got, raw) == (want, system), (d, m0, n, m)
