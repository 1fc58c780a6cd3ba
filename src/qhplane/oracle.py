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

The result is an upper bound on the dimension over the complex numbers:
the rank at any particular choice of points, over F_p or over Q, is at most
the generic rank, and the F_p rank of integer points is at most their rank
over Q.  Fixing three points at the coordinate points is such a choice, so
the bound still holds, with equality for general points.  By
semicontinuity we take the minimum over independent trials, and stop as
soon as a trial reaches max(-1, v), below which no trial can go.  Primes
are limited to p <= 2^31 - 1 so that products of two residues fit in int64.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
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


def _binomials(n: int, p: int) -> np.ndarray:
    """Pascal triangle mod p, shape (n+1, n+1)."""
    C = np.zeros((n + 1, n + 1), dtype=np.int64)
    C[:, 0] = 1
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            C[i, j] = (C[i - 1, j - 1] + C[i - 1, j]) % p
    return C


def condition_rows(
    d: int,
    points: Sequence[tuple[int, int, int]],
    p: int,
    monomials: Optional[Sequence[tuple[int, int]]] = None,
) -> np.ndarray:
    """Interpolation matrix for degree-d curves, one block of rows per point.

    points: (x, y, mult) in the affine chart z = 1.  Columns are indexed by
    `monomials`, pairs (a, b) standing for x^a y^b; None means every
    monomial with a + b <= d, ordered by a then b.  The row for derivative
    order (i, j), i + j < mult, at (px, py) has entry C(a,i) C(b,j)
    px^(a-i) py^(b-j) in the (a, b) column: the x^i y^j coefficient of the
    monomial shifted to the point.
    """
    if monomials is None:
        monomials = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    A = np.array([a for a, _ in monomials], dtype=np.int64)
    B = np.array([b for _, b in monomials], dtype=np.int64)
    # Ct[i, a] = C(a, i); zero for i > a.
    Ct = _binomials(d, p).T
    a_minus_i = np.arange(d + 1)[None, :] - np.arange(d + 1)[:, None]
    blocks = []
    for px, py, mult in points:
        if mult <= 0:
            continue
        ii = np.array([i for i in range(mult) for _ in range(mult - i)])
        jj = np.array([j for i in range(mult) for j in range(mult - i)])
        X = _shifted_powers(Ct, a_minus_i, px % p, mult, p)
        Y = _shifted_powers(Ct, a_minus_i, py % p, mult, p)
        blocks.append(X[ii][:, A] * Y[jj][:, B] % p)
    if not blocks:
        return np.zeros((0, len(A)), dtype=np.int64)
    return np.concatenate(blocks)


def _shifted_powers(
    Ct: np.ndarray, a_minus_i: np.ndarray, x: int, mult: int, p: int
) -> np.ndarray:
    """Table T[i, a] = C(a, i) x^(a-i) mod p for i < mult, a <= d; rows
    i > d are zero."""
    d = len(Ct) - 1
    powers = np.ones(d + 1, dtype=np.int64)
    for k in range(1, d + 1):
        powers[k] = powers[k - 1] * x % p
    table = np.zeros((mult, d + 1), dtype=np.int64)
    k = min(mult, d + 1)
    table[:k] = Ct[:k] * powers[np.maximum(a_minus_i[:k], 0)] % p
    return table


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p by Gaussian elimination, pivoting on the first nonzero
    entry of each column.  int64 is safe: products stay below 2^62 for
    p <= 2^31 - 1."""
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
        # The swap moved a row with a zero in this column to `pivot`; every
        # other nonzero row below keeps its index.
        below = rank + nz[1:]
        if below.size:
            inv = pow(int(A[rank, col]), p - 2, p)
            factors = A[below, col] * inv % p
            A[below, col:] = (A[below, col:] - factors[:, None] * A[rank, col:]) % p
        rank += 1
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
    kept = [
        (a, b)
        for a in range(d - m1 + 1)
        for b in range(max(0, m0 - a), min(d - a, d - m2) + 1)
    ]
    floor = max(-1, cols - 1 - sum(m * (m + 1) // 2 for m in active))
    best = ncols - 1
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial, d, len(active)])
        coords = rng.integers(0, p, size=(len(sampled), 2), dtype=np.int64)
        points = [(int(x), int(y), m) for (x, y), m in zip(coords, sampled)]
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
