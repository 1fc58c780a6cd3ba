import random
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhplane import oracle
from qhplane.cli import main
from qhplane.core import L, expected_dim, trinomial_dim
from qhplane.oracle import (
    DEFAULT_CONFIG,
    MAX_MATRIX_CELLS,
    MERSENNE_31,
    OracleConfig,
    condition_rows,
    measure_dim,
    measure_dim_mults,
    measure_speciality,
    rank_mod_p,
)


def test_known_dimensions():
    assert measure_dim(L(1, 0, 2, 1)).dim == 0
    assert measure_dim(L(6, 0, 5, 3)).dim == 0  # special: e = -1
    assert measure_dim(L(2, 0, 2, 2)).dim == 0  # the doubled line
    assert measure_dim(L(4, 0, 5, 2)).dim == 0
    assert measure_dim(L(4, 0, 2, 3)).dim == 3
    assert measure_dim(L(3, 0, 3, 2)).dim == 0
    assert measure_dim(L(5, 0, 1, 1)).dim == 19


def test_measure_speciality():
    dim, e, special = measure_speciality(L(4, 0, 5, 2))
    assert (dim, e, special) == (0, -1, True)
    dim, e, special = measure_speciality(L(3, 0, 3, 2))
    assert (dim, e, special) == (0, 0, False)


def test_determinism():
    cfg = OracleConfig(trials=2, seed=7)
    a = measure_dim(L(9, 4, 6, 3), cfg).dim
    b = measure_dim(L(9, 4, 6, 3), cfg).dim
    assert a == b


def test_trial_monotonicity():
    for sys_ in (L(8, 3, 6, 2), L(10, 0, 9, 3), L(7, 7, 4, 2)):
        d3 = measure_dim(sys_, OracleConfig(trials=3)).dim
        d10 = measure_dim(sys_, OracleConfig(trials=10)).dim
        assert d10 <= d3
        assert d10 == d3  # no unlucky-point contamination at this size


def test_row_count_identity():
    d, mults = 7, [4, 2, 2, 2]
    p = MERSENNE_31
    pts = [(11 * i + 1, 13 * i + 2, m) for i, m in enumerate(mults)]
    rows = condition_rows(d, pts, p)
    assert rows.shape == (sum(m * (m + 1) // 2 for m in mults), 36)


def test_translation_invariance():
    # Another seed samples other points; general points give one dimension.
    base = measure_dim_mults(8, [3, 2, 2, 2, 2], OracleConfig(seed=1))
    moved = measure_dim_mults(8, [3, 2, 2, 2, 2], OracleConfig(seed=2))
    assert base == moved


def test_negative_degree_and_multiplicity():
    assert measure_dim_mults(-1, [1, 2]) == -1
    with pytest.raises(ValueError, match="non-negative"):
        measure_dim_mults(4, [2, -1])


def test_rejects_small_prime():
    with pytest.raises(ValueError):
        measure_dim_mults(13, [1], OracleConfig(prime=11))
    with pytest.raises(ValueError):
        OracleConfig(prime=10)
    with pytest.raises(ValueError):
        OracleConfig(trials=0)


def test_rank_mod_p_small():
    p = 101
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_mod_p(A, p) == 2
    assert rank_mod_p(np.zeros((3, 3), dtype=np.int64), p) == 0


def test_excess_multiplicity_handled_naturally():
    # multiplicity beyond the degree simply empties the system
    assert measure_dim(L(2, 4)).dim == -1


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 7),
    st.lists(st.integers(1, 3), min_size=0, max_size=5),
)
def test_oracle_at_most_expected_conditions(d, mults):
    # dim >= v always: the oracle can only see fewer independent conditions
    sys_dim = measure_dim_mults(d, mults)
    cols = (d + 1) * (d + 2) // 2
    v = cols - 1 - sum(m * (m + 1) // 2 for m in mults)
    assert sys_dim >= max(-1, v)
    assert sys_dim <= cols - 1


def test_result_carries_config():
    res = measure_dim(L(3, 1, 2, 1))
    assert res.certificate["oracle"] == DEFAULT_CONFIG.as_dict()


# ---------------------------------------------------------------------------
# Exactness of the vectorized matrix, the rank and the centred oracle
# against plain references.
# ---------------------------------------------------------------------------


def reference_condition_rows(d, points, p):
    """Entry-by-entry interpolation matrix over all monomials a + b <= d."""
    cols = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    C = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        C[i][0] = 1
        for j in range(1, i + 1):
            C[i][j] = (C[i - 1][j - 1] + C[i - 1][j]) % p
    rows = []
    for px, py, mult in points:
        if mult <= 0:
            continue
        xpow = [pow(px, k, p) for k in range(d + 1)]
        ypow = [pow(py, k, p) for k in range(d + 1)]
        for i in range(mult):
            for j in range(mult - i):
                rows.append([
                    C[a][i] * C[b][j] % p * xpow[a - i] % p * ypow[b - j] % p
                    if a >= i and b >= j else 0
                    for a, b in cols
                ])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(cols))


def reference_rank(matrix, p):
    """Row reduction on Python integers."""
    A = [[int(v) % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        pivot = next((r for r in range(rank, len(A)) if A[r][col]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][col], p - 2, p)
        for r in range(len(A)):
            if r != rank and A[r][col]:
                f = A[r][col] * inv % p
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def previous_rank_mod_p(matrix, p):
    """rank_mod_p before the blocked elimination: one pivot at a time on the
    first nonzero entry of each column, updating every nonzero row below."""
    A = matrix % p
    rows, cols = A.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(A[rank:, col])
        if not nz.size:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            A[[rank, pivot]] = A[[pivot, rank]]
        below = rank + nz[1:]
        if below.size:
            inv = pow(int(A[rank, col]), p - 2, p)
            factors = A[below, col] * inv % p
            A[below, col:] = (A[below, col:] - factors[:, None] * A[rank, col:]) % p
        rank += 1
    return rank


def full_matrix_dim(d, mults, cfg):
    """The oracle without coordinate points: every point sampled, every
    column kept, min over all cfg.trials."""
    p = cfg.prime
    cols = (d + 1) * (d + 2) // 2
    active = [m for m in mults if m > 0]
    best = cols - 1
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, 1000 + trial, d, len(active)])
        coords = rng.integers(0, p, size=(len(active), 2))
        points = [(int(x), int(y), m) for (x, y), m in zip(coords, active)]
        best = min(best, cols - rank_mod_p(condition_rows(d, points, p), p) - 1)
    return best


def test_condition_rows_matches_entrywise_reference():
    p = 101
    rng = np.random.default_rng(11)
    for d in (0, 1, 4, 7):
        mults = [d + 3, 1, 0, 2, d + 1]  # includes mult > d + 1 and a zero
        coords = rng.integers(-500, 500, size=(len(mults), 2))
        points = [(int(x), int(y), m) for (x, y), m in zip(coords, mults)]
        ref = reference_condition_rows(d, points, p)
        got = condition_rows(d, points, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)
        cols = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
        subset = cols[::3]
        picked = condition_rows(d, points, p, subset)
        assert np.array_equal(picked, ref[:, [cols.index(ab) for ab in subset]])


def test_rank_mod_p_matches_reference():
    rng = np.random.default_rng(5)
    for p in (2, 3, 101):
        for _ in range(30):
            rows, cols = rng.integers(1, 12, size=2)
            r = int(rng.integers(0, min(rows, cols) + 1))
            M = rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, cols))
            M[rng.integers(0, rows)] = 0
            assert rank_mod_p(M % p, p) == reference_rank(M, p)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.sampled_from([0, 1, 5, 31, 32, 33, 64, 65, 96, 98, 110]),
    cols=st.sampled_from([0, 1, 31, 32, 33, 63, 64, 65, 97]),
    p=st.sampled_from([2, 3, 65521, MERSENNE_31]),
    kind=st.sampled_from(
        ["random", "low_rank", "all_p_minus_1", "largest_limb_sums", "no_pivot_panel",
         "zero_columns", "duplicate_rows"]
    ),
    unreduced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=110, cols=97, p=MERSENNE_31, kind="largest_limb_sums", unreduced=False, seed=0)
@example(rows=65, cols=65, p=MERSENNE_31, kind="largest_limb_sums", unreduced=True, seed=0)
@example(rows=110, cols=97, p=MERSENNE_31, kind="all_p_minus_1", unreduced=False, seed=0)
@example(rows=98, cols=97, p=3, kind="no_pivot_panel", unreduced=True, seed=1)
@example(rows=0, cols=97, p=2, kind="random", unreduced=False, seed=0)
@example(rows=98, cols=0, p=65521, kind="random", unreduced=False, seed=0)
def test_rank_mod_p_matches_previous_elimination_across_panels(
    rows, cols, p, kind, unreduced, seed
):
    # Column counts around the 32-column panels, so that trailing updates,
    # panels without a pivot and a last partial panel all occur.
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, size=(rows, cols))
    if kind == "low_rank":
        r = int(rng.integers(0, min(rows, cols) + 1))
        M = rng.integers(0, p, size=(rows, r)) @ rng.integers(0, 4, size=(r, cols)) % p
    elif kind == "all_p_minus_1":  # every limb product at its largest
        M = np.full((rows, cols), p - 1)
    elif kind == "largest_limb_sums":
        # [[I, (p-2) J], [2 J, c J]] with c = 2k (p - 2): rank k.  The rows
        # below the identity take the trailing update with every multiplier
        # and every entry of A12 equal to p - 2, whose limbs are odd and
        # near 2^16 and 2^15, so a limb sum past 2^53 would be rounded.
        k = min(rows, cols, 64)
        M = np.full((rows, cols), 2 * k * (p - 2) % p)
        M[:k] = p - 2
        M[:, :k] = 2
        M[:k, :k] = np.eye(k, dtype=np.int64)
    elif kind == "no_pivot_panel" and cols > 32:
        # columns 32..63 lie in the span of the first panel's, so below its
        # pivots the second panel is zero
        M[:, 32:64] = M[:, :32] @ rng.integers(0, 4, size=(32, min(cols, 64) - 32)) % p
    elif kind == "zero_columns" and cols:
        M[:, rng.integers(0, cols, size=max(1, cols // 4))] = 0
    elif kind == "duplicate_rows" and rows > 1:
        M[rng.integers(0, rows, size=rows // 2)] = M[rng.integers(0, rows)]
    if unreduced:
        M = M + p * rng.integers(-3, 4, size=M.shape)
    before = M.copy()
    assert rank_mod_p(M, p) == previous_rank_mod_p(M, p)
    assert np.array_equal(M, before)


@pytest.mark.parametrize("p", [0, 1, -5, MERSENNE_31 + 1, 4294967311])
def test_rank_mod_p_rejects_primes_outside_the_exact_range(p):
    with pytest.raises(ValueError, match=r"2 <= p <= 2\^31 - 1"):
        rank_mod_p(np.ones((2, 2), dtype=np.int64), p)


def test_memory_is_bounded_by_the_matrix():
    # one sampled point at degree 2000: a 1 x 2,003,001 matrix of int64
    cells = 2001 * 2002 // 2
    tracemalloc.start()
    try:
        dim = measure_dim_mults(2000, [1, 1, 1, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == cells - 4 - 1
    assert peak < 8 * 8 * cells


def test_centred_oracle_matches_full_matrix_reference():
    cfg = OracleConfig()
    for d in range(1, 9):
        for m in (1, 2, 3):
            for m0 in range(0, d + 2, 2):
                for n in range(0, 7):
                    mults = [m0] + [m] * n
                    assert measure_dim_mults(d, mults, cfg) == full_matrix_dim(
                        d, mults, cfg
                    ), (d, m0, n, m)
    rng = random.Random(3)
    for _ in range(60):
        d = rng.randint(1, 10)
        mults = [rng.randint(0, 5) for _ in range(rng.randint(0, 8))]
        assert measure_dim_mults(d, mults, cfg) == full_matrix_dim(
            d, mults, cfg
        ), (d, mults)


@pytest.fixture
def rank_calls(monkeypatch):
    calls = []
    original = oracle.rank_mod_p

    def counted(matrix, p):
        calls.append(matrix.shape)
        return original(matrix, p)

    monkeypatch.setattr(oracle, "rank_mod_p", counted)
    return calls


def test_non_special_cell_builds_one_matrix(rank_calls):
    sys_ = L(10, 3, 8, 3)
    dim, e, special = measure_speciality(sys_)
    assert (dim, special) == (e, False)
    assert len(rank_calls) == 1


def test_special_cell_builds_every_trial(rank_calls):
    cfg = OracleConfig(trials=4)
    assert measure_speciality(L(6, 0, 5, 3), cfg) == (0, -1, True)
    assert len(rank_calls) == cfg.trials


def test_sampled_points_are_pinned(monkeypatch):
    # The points come from random.Random seeded with "seed,trial,d,k", x then
    # y by randrange(p); a change to that stream must show up here.
    drawn = []
    original = oracle.condition_rows

    def spy(d, points, p, monomials=None):
        drawn.append(points)
        return original(d, points, p, monomials)

    monkeypatch.setattr(oracle, "condition_rows", spy)
    # special (dim 0 > e = -1), so no trial reaches the floor and all three run
    assert measure_dim_mults(4, [2, 2, 0, 2, 2, 2], DEFAULT_CONFIG) == 0
    assert (DEFAULT_CONFIG.seed, DEFAULT_CONFIG.prime) == (20209, MERSENNE_31)
    assert drawn == [
        [(891283888, 638363182, 2), (1149369858, 2023898975, 2)],
        [(18503461, 1312351360, 2), (1579159082, 1120129638, 2)],
        [(532902849, 778650347, 2), (1688043387, 602660316, 2)],
    ]


def test_three_points_build_no_matrix(rank_calls):
    for d in range(0, 9):
        for m0, m1, m2 in ((0, 0, 0), (3, 1, 0), (2, 5, 4), (d, d, 1), (d + 1, 0, 2)):
            mults = [m1, 0, m0, m2]  # order and zeros do not matter
            expected = trinomial_dim(d, *sorted((m0, m1, m2), reverse=True))
            assert measure_dim_mults(d, mults) == expected
            assert trinomial_dim(d, m0, m1, m2) == expected
    assert rank_calls == []


def test_three_points_count_without_listing():
    # 5 * 10^9 monomials if listed; compared with the closed form here only
    tracemalloc.start()
    try:
        dim = measure_dim_mults(10**5, [1, 1, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == trinomial_dim(10**5, 1, 1, 1)
    assert peak < 1 << 20


def test_three_point_count_matches_the_listed_monomials():
    # x^a y^b z^c vanishes to order a + b at (0:0:1), b + c at (1:0:0) and
    # a + c at (0:1:0); list the survivors of every sorted triple, d <= 30
    for d in range(31):
        a, b = np.array([(a, b) for a in range(d + 1) for b in range(d + 1 - a)]).T
        c = d - a - b
        for m0, m1, m2 in combinations_with_replacement(range(d + 1, -1, -1), 3):
            listed = np.count_nonzero((a + b >= m0) & (b + c >= m1) & (a + c >= m2))
            assert measure_dim_mults(d, [m2, m0, m1]) == listed - 1, (d, m0, m1, m2)


def test_large_class_on_the_small_matrix(rank_calls):
    # L(56,48,17,7) is a (-1)-class: e = 0.  The full matrix is 1652 x 1653;
    # with three points at the coordinate points it is 420 x 421.
    assert measure_dim(L(56, 48, 17, 7)).dim == 0
    assert rank_calls == [(420, 421)]


def test_oversized_input_is_refused_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("a condition matrix was built")

    monkeypatch.setattr(oracle, "condition_rows", build)
    # L(100,0,60,5): 57 sampled points of 15 rows each, times 5151 monomials
    assert 855 * 5151 > MAX_MATRIX_CELLS
    with pytest.raises(ValueError, match=r"855 x 5151 \(35,232,840 bytes"):
        measure_dim(L(100, 0, 60, 5))


def test_rejects_prime_above_int64_safe_range():
    with pytest.raises(ValueError, match="2\\^31 - 1"):
        OracleConfig(prime=4294967311)
    # 2^61 - 1 is prime; trial division would take minutes
    with pytest.raises(ValueError, match="2\\^31 - 1"):
        OracleConfig(prime=2**61 - 1)
    assert OracleConfig(prime=MERSENNE_31).prime == MERSENNE_31


def test_cli_rejects_prime_above_int64_safe_range(capsys):
    assert main(["oracle", "6", "0", "5", "3", "--prime", "4294967311"]) == 2
    captured = capsys.readouterr()
    assert "measured dim" not in captured.out
    assert "2^31 - 1" in captured.err
