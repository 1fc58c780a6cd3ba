"""Finite-field interpolation oracle.

Measures the generic dimension of a fat-point system directly: place the
base points over F_p, build the conditions-by-monomials matrix, and take
corank - 1.  A point of multiplicity m contributes the m(m+1)/2
coefficient-vanishing conditions of total order < m on the polynomial
shifted to that point; the rows are binomial-expansion coefficients, which
are valid in any characteristic (Hasse-derivative conditions).

Three general points are projectively equivalent to the coordinate points
(0:0:1), (1:0:0) and (0:1:0), so the three largest multiplicities m0 >= m1
>= m2 sit there.  Their conditions are monomial: x^a y^b z^c vanishes to
order a + b at (0:0:1), b + c at (1:0:0) and a + c at (0:1:0).  They become
column exclusions, and only the monomials with a + b >= m0, a <= d - m1 and
b <= d - m2 get a column.  The remaining points are sampled at random in
the chart z = 1 and give the only rows; with no point left to sample the
count of kept columns, taken row by row without listing them, is exact.
Each trial draws its points from the standard library's Random, seeded
with the string "seed,trial,d,k" (k the number of positive multiplicities),
x then y per point by randrange(p), so numpy.random is never loaded.  A
string seed hashes the same on every platform; Python does not promise
randrange's stream across versions, so a test pins some drawn points.

The result is an upper bound on the dimension over the complex numbers:
the rank at any particular choice of points, over F_p or over Q, is at most
the generic rank, and the F_p rank of integer points is at most their rank
over Q.  Fixing three points at the coordinate points is such a choice, so
the bound still holds, with equality for general points.  By
semicontinuity we take the minimum over independent trials, and stop as
soon as a trial reaches max(-1, v), below which no trial can go.

The rank is a right-looking blocked elimination over panels of BLOCK
columns.  Primes are limited to p <= 2^31 - 1 for two exact-arithmetic
bounds: inside a panel, products of two residues stay below 2^62 and fit in
int64; the trailing update runs through float64 BLAS on 16-bit limbs, where
every sum of at most 2 BLOCK limb products stays an integer below 2^53.
Memory stays a small multiple of the matrix: the kept columns are listed
as an int64 array, and only the binomial rows that the largest
multiplicity needs are built.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from random import Random
from typing import Optional, Sequence

import numpy as np

from .core import (
    DimensionResult,
    QuasiHomogeneousSystem,
    Status,
    expected_dim,
)

MERSENNE_31 = 2**31 - 1
#: the most entries (rows x monomials of degree d) a condition matrix may
#: have, 32 MiB of int64; larger inputs are refused before anything is built
MAX_MATRIX_CELLS = 1 << 22
#: panel width of `rank_mod_p`; the float64 update sums 2 BLOCK limb
#: products, so BLOCK <= 32 keeps every sum below 2^53
BLOCK = 32
#: limb base of the float64 update: residues below 2^31 split in two
LIMB = 1 << 16


@dataclass(frozen=True)
class OracleConfig:
    prime: int = MERSENNE_31
    trials: int = 3
    seed: int = 20209

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.prime > MERSENNE_31:
            raise ValueError(
                f"prime {self.prime} exceeds 2^31 - 1: int64 products of two "
                "residues would overflow"
            )
        if self.prime < 2 or not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

    def as_dict(self) -> dict:
        return {"prime": self.prime, "trials": self.trials, "seed": self.seed}


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % i for i in range(2, isqrt(p) + 1))


DEFAULT_CONFIG = OracleConfig()


def _binomials(d: int, rows: int, p: int) -> np.ndarray:
    """Table Ct[i, a] = C(a, i) mod p for i < rows, a <= d, row by row from
    the hockey stick C(a, i) = sum of C(b, i - 1) over b < a."""
    Ct = np.zeros((rows, d + 1), dtype=np.int64)
    Ct[:1] = 1
    for i in range(1, rows):
        # d residues below 2^31 sum to below 2^63 for any d < 2^32
        np.cumsum(Ct[i - 1, :-1], out=Ct[i, 1:])
        Ct[i, 1:] %= p
    return Ct


def condition_rows(
    d: int,
    points: Sequence[tuple[int, int, int]],
    p: int,
    monomials: Optional[Sequence[tuple[int, int]]] = None,
) -> np.ndarray:
    """Interpolation matrix for degree-d curves, one block of rows per point.

    points: (x, y, mult) in the affine chart z = 1.  Columns are indexed by
    `monomials`, pairs (a, b) standing for x^a y^b (a sequence of pairs or
    an (n, 2) int64 array); None means every monomial with a + b <= d,
    ordered by a then b.  The row for derivative order (i, j), i + j < mult,
    at (px, py) has entry C(a,i) C(b,j) px^(a-i) py^(b-j) in the (a, b)
    column: the x^i y^j coefficient of the monomial shifted to the point.
    """
    if monomials is None:
        monomials = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    A, B = np.asarray(monomials, dtype=np.int64).reshape(-1, 2).T
    points = [(px, py, mult) for px, py, mult in points if mult > 0]
    Ct = _binomials(d, max((mult for _, _, mult in points), default=0), p)
    nrows = sum(mult * (mult + 1) // 2 for _, _, mult in points)
    out = np.empty((nrows, len(A)), dtype=np.int64)
    row = 0
    for px, py, mult in points:
        ii = [i for i in range(mult) for _ in range(mult - i)]
        jj = [j for i in range(mult) for j in range(mult - i)]
        X = _shifted_powers(Ct[:mult], px % p, p)
        Y = _shifted_powers(Ct[:mult], py % p, p)
        block = out[row : row + len(ii)]
        np.multiply(X[ii][:, A], Y[jj][:, B], out=block)
        block %= p
        row += len(ii)
    return out


def _shifted_powers(Ct: np.ndarray, x: int, p: int) -> np.ndarray:
    """Table T[i, a] = C(a, i) x^(a-i) mod p for the rows i of Ct; the
    entries with a < i are zero because C(a, i) is."""
    mult, n = Ct.shape
    powers = np.ones(n, dtype=np.int64)
    for k in range(1, n):
        powers[k] = powers[k - 1] * x % p
    a_minus_i = np.arange(n) - np.arange(mult)[:, None]
    return Ct * powers[np.maximum(a_minus_i, 0)] % p


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x <- x mod p in place for int64 x, with scratch of x's shape.  The
    three passes cost about 60% of one int64 np.remainder pass."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch


def _add_mul_mod(
    C: np.ndarray, L: np.ndarray, U: np.ndarray, p: int, buf: np.ndarray
) -> None:
    """C <- (C + L @ U) mod p in place, for residues with L at most BLOCK
    columns wide, exactly, through float64 BLAS.

    U splits into 16-bit limbs, U = U_lo + LIMB U_hi, and the product is
    [L, LIMB L mod p] @ [U_lo; U_hi].  Each entry sums at most BLOCK products
    below 2^31 * 2^16 and BLOCK below 2^31 * 2^15; with C's residue that is
    below 2^53, so every float64 partial sum is an exact integer whatever
    order BLAS adds them in.  buf holds the product, then the scratch of the
    reduction."""
    m, k = L.shape
    n = U.shape[1]
    Lf = np.empty((m, 2 * k))
    Lf[:, :k] = L
    Lf[:, k:] = L * LIMB % p
    Uf = np.empty((2 * k, n))
    np.bitwise_and(U, LIMB - 1, out=Uf[:k])
    np.floor_divide(U, LIMB, out=Uf[k:])
    product = buf[: m * n].reshape(m, n)
    np.matmul(Lf, Uf, out=product)
    np.add(C, product, out=C, casting="unsafe")
    _reduce(C, p, buf.view(np.int64)[: m * n].reshape(m, n))


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p of an integer matrix, which is not modified.

    Right-looking blocked elimination: each panel of BLOCK columns is
    eliminated column by column, pivoting on the first nonzero entry and
    swapping whole rows, in int64, where products of two residues stay
    below 2^62.  The panel's row operations are also applied to an identity
    block beside it, which ends up holding -L21 L11^-1, so the rows below
    the panel's pivots take the Schur complement update
    A22 <- A22 - L21 L11^-1 A12 = A22 - L21 U12 in one float64 product whose
    limb sums stay below 2^53 (`_add_mul_mod`).  Raises ValueError unless
    2 <= p <= 2^31 - 1, the range both bounds need; p must be prime."""
    if not 2 <= p <= MERSENNE_31:
        raise ValueError(f"rank_mod_p needs 2 <= p <= 2^31 - 1, got {p}")
    A = np.asarray(matrix, dtype=np.int64) % p
    rows, cols = A.shape
    # the first trailing product is the largest: below at least one pivot
    # row and right of at least one column
    buf = np.empty(max(rows - 1, 0) * max(cols - 1, 0))
    rank = 0
    for c0 in range(0, cols, BLOCK):
        if rank == rows:
            break
        c1 = min(c0 + BLOCK, cols)
        w = c1 - c0
        r0 = rank
        # Column w + t records each row's multiple of the t-th pivot row as
        # it was before the panel.  Fortran order keeps every column range
        # one contiguous block.
        Q = np.zeros((rows - r0, 2 * w), dtype=np.int64, order="F")
        Q[:, :w] = A[r0:, c0:c1]
        scratch = np.empty_like(Q)
        t = 0
        for j in range(w):
            nz = Q[t:, j].nonzero()[0]
            if not nz.size:
                continue
            s = t + int(nz[0])
            if s != t:
                Q[[t, s]] = Q[[s, t]]
                A[[r0 + t, r0 + s]] = A[[r0 + s, r0 + t]]
            Q[t, w + t] = 1
            # Scale the pivot row to a leading 1, so that the multiple of it
            # to subtract from row i is Q[i, j].  Rows up to t are finished
            # and are never read again, so they take the update too: every
            # column range stays one contiguous block.
            pivot_row = Q[t, j + 1 : w + t + 1]
            pivot_row *= pow(int(Q[t, j]), -1, p)
            pivot_row %= p
            rest = Q[:, j + 1 : w + t + 1]
            tmp = scratch[:, : rest.shape[1]]
            np.multiply.outer(Q[:, j], pivot_row, out=tmp)
            rest -= tmp
            _reduce(rest, p, tmp)
            t += 1
            if r0 + t == rows:
                break
        rank += t
        if t and rank < rows and c1 < cols:
            _add_mul_mod(A[rank:, c1:], Q[t:, w : w + t], A[r0:rank, c1:], p, buf)
    return rank


def measure_dim_mults(
    d: int,
    mults: Sequence[int],
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> int:
    """Generic dimension of degree-d curves with the given multiplicities at
    general points, measured as an upper bound.

    The three largest multiplicities sit at the coordinate points and turn
    into column exclusions; the rest sit at random points, and the result
    is the minimum over cfg.trials independent samples.  The loop stops
    early once a trial reaches max(-1, v), below which no trial can go.
    Raises ValueError, before building anything, when the sampled points'
    rows times the (d+1)(d+2)/2 monomials exceed MAX_MATRIX_CELLS."""
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be non-negative")
    if d < 0:
        return -1
    if cfg.prime <= d:
        raise ValueError(f"prime {cfg.prime} must exceed the degree {d}")
    p = cfg.prime
    active = sorted((m for m in mults if m > 0), reverse=True)
    m0, m1, m2 = (active + [0, 0, 0])[:3]
    sampled = active[3:]
    rows = sum(m * (m + 1) // 2 for m in sampled)
    cols = (d + 1) * (d + 2) // 2
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(
            f"the oracle's condition matrix for degree {d} would be {rows} x {cols} "
            f"({8 * rows * cols:,} bytes of int64), above the cap of "
            f"{MAX_MATRIX_CELLS:,} entries"
        )
    # (0:0:1) kills x^a y^b with a + b < m0, (1:0:0) those with
    # b + c < m1 and (0:1:0) those with a + c < m2, where c = d - a - b:
    # row a <= d - m1 keeps b from max(0, m0 - a) to min(d - a, d - m2).
    # Count the rows' columns first: with no point to sample, the count is
    # the answer and no monomial is listed.
    ncols = sum(max(0, min(d - a, d - m2) - max(0, m0 - a) + 1) for a in range(d - m1 + 1))
    if not sampled or not ncols:
        return ncols - 1
    # List those columns as an (ncols, 2) int64 array of (a, b) pairs, not a
    # Python tuple per monomial: row a's b run from lo[a] over counts[a].
    a = np.arange(d - m1 + 1)
    lo = np.maximum(0, m0 - a)
    counts = np.maximum(0, np.minimum(d - a, d - m2) - lo + 1)
    kept = np.empty((ncols, 2), dtype=np.int64)
    kept[:, 0] = np.repeat(a, counts)
    kept[:, 1] = np.arange(ncols) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    floor = max(-1, cols - 1 - sum(m * (m + 1) // 2 for m in active))
    best = ncols - 1
    for trial in range(cfg.trials):
        rng = Random(f"{cfg.seed},{trial},{d},{len(active)}")
        points = [(rng.randrange(p), rng.randrange(p), m) for m in sampled]
        matrix = condition_rows(d, points, p, kept)
        best = min(best, len(kept) - rank_mod_p(matrix, p) - 1)
        if best == floor:
            break
    return best


def measure_dim(
    system: QuasiHomogeneousSystem, cfg: OracleConfig = DEFAULT_CONFIG
) -> DimensionResult:
    dim = measure_dim_mults(system.d, system.multiplicities(), cfg)
    return DimensionResult(
        dim=dim,
        status=Status.ORACLE_MEASURED,
        certificate={"oracle": cfg.as_dict()},
    )


def measure_speciality(
    system: QuasiHomogeneousSystem, cfg: OracleConfig = DEFAULT_CONFIG
) -> tuple[int, int, bool]:
    """(measured dim, expected dim, special?)."""
    dim = measure_dim(system, cfg).dim
    e = expected_dim(system)
    return dim, e, dim > e
