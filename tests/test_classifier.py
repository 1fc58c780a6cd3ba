import pytest

from qhplane import classifier
from qhplane.classifier import (
    SPECIAL_TABLE,
    SpecialTableEntry,
    dimension,
    is_special,
    lookup_special_table,
)
from qhplane.core import L, SoundnessError, Status, expected_dim, virtual_dim
from qhplane.cremona import dim_large_m0
from qhplane.oracle import measure_dim


def _instantiate_table(limit: int):
    """All concrete systems matched by some table family with d <= limit."""
    out = []
    for d in range(0, limit + 1):
        for m in (2, 3):
            for m0 in range(0, d + 1):
                for n in range(1, limit + 1):
                    sys_ = L(d, m0, n, m)
                    hits = [
                        (e.name, got)
                        for e in SPECIAL_TABLE
                        if (got := e.match(d, m0, n, m)) is not None
                    ]
                    if hits:
                        out.append((sys_, hits))
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
        d, m0, n, m = sys_.as_tuple()
        values = {got for _, got in hits}
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
        l = hits[0][1][1]
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
                    sys_ = L(d, m0, n, m)
                    table = lookup_special_table(sys_, with_decomposition=False)
                    decomp = find_special_decomposition(sys_)
                    assert (table is not None) == (decomp is not None), sys_


def test_section6_path_agrees_with_theorem_path():
    # for m in {2,3} and m0 >= d-m-1, the closed forms and the table agree
    for d in range(1, 15):
        for m in (2, 3):
            for m0 in range(max(0, d - m - 1), d + 1):
                for n in range(3, 12):
                    sys_ = L(d, m0, n, m)
                    assert dim_large_m0(sys_).dim == dimension(sys_).dim, sys_


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


@pytest.mark.parametrize(
    "claims, message",
    [
        ([(-1, 0), (-1, 1)], "families disagree"),
        ([(0, 0)], "v mismatch"),
        ([(-1, -1)], "not special"),
    ],
    ids=["disagree", "v", "not-special"],
)
def test_table_checks_raise_soundness_error(monkeypatch, claims, message):
    # forged families matching L(4,0,5,2) (v = -1, e = -1) with these (v, l),
    # under its key (m, d - m0) = (2, 4)
    table = [
        SpecialTableEntry(f"forged{i}", (2, 4), lambda d, m0, n, m, got=got: got)
        for i, got in enumerate(claims)
    ]
    monkeypatch.setattr(classifier, "TABLE_INDEX", {(2, 4): table})
    with pytest.raises(SoundnessError, match=message):
        lookup_special_table(L(4, 0, 5, 2))


def test_table_index_loses_no_family():
    # every (d, m0, n, m) with d, n <= 40, m <= 4 and m0 <= d + 2: a family
    # matches only under its key, and the indexed lookup finds what a full
    # scan of SPECIAL_TABLE finds
    matched = set()
    for d in range(0, 41):
        for m0 in range(0, d + 3):
            for n in range(0, 41):
                for m in range(1, 5):
                    scan = [e for e in SPECIAL_TABLE if e.match(d, m0, n, m) is not None]
                    for e in scan:
                        assert e.key == (m, d - m0), (e.name, d, m0, n, m)
                    matched.update(e.name for e in scan)
                    if m <= 3:
                        got = lookup_special_table(L(d, m0, n, m), with_decomposition=False)
                        assert (got.families if got else []) == [e.name for e in scan]
    assert matched == {e.name for e in SPECIAL_TABLE}


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
