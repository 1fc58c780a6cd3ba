"""Quasi-homogeneous linear systems of plane curves and their numerical invariants.

A system L(d, m0, n, m) is the family of plane curves of degree d with a
point of multiplicity m0 at one general point p0 and multiplicity m at n
further general points.  This module holds the system type, the one status
vocabulary shared by the classifier and the certifier, the virtual /
expected dimension bookkeeping with the rule that turns a proved dimension
into a proved status, and the closed-form dimension of up to three fat
points (a count of monomials by inclusion-exclusion) that the base cases
everywhere else rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

#: Inputs are quadratic in d, m0, n, m; capping them keeps every formula
#: comfortably inside 64-bit signed arithmetic.
MAX_INPUT = 10**6


class Status(str, Enum):
    """Proof status of a dimension (classifier) or outcome (certifier).

    A str Enum: members compare equal to their values and json writes the
    value.  Print `.value`; f"{member}" gives the member name on 3.11."""

    NON_SPECIAL_PROVED = "NonSpecialProved"
    SPECIAL_PROVED = "SpecialProved"
    CONJECTURAL = "Conjectural"
    ORACLE_MEASURED = "OracleMeasured"
    EMPTY_PROVED = "EmptyProved"
    INCONCLUSIVE = "Inconclusive"


class SoundnessError(AssertionError):
    """Raised when a soundness check fails: an identity every answer leans
    on (the genus bookkeeping, the split arithmetic, the fixed-part
    accounting), or semicontinuity.  Never expected; it means a bug, or
    input dimensions (a cache entry, say) that are false.  An exception,
    not an assert, so it also runs under -O."""


@dataclass(frozen=True)
class QuasiHomogeneousSystem:
    """The 4-tuple (d, m0, n, m) naming a system L(d, m0, n, m).

    Degenerate data is normalized at construction: n = 0 forces m = 0 and
    vice versa, so equality of systems is structural equality.
    """

    d: int
    m0: int
    n: int
    m: int

    def __post_init__(self):
        for name in ("d", "m0", "n", "m"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            if value > MAX_INPUT:
                raise ValueError(f"{name} exceeds the supported cap {MAX_INPUT}")
        if self.n == 0 and self.m != 0:
            object.__setattr__(self, "m", 0)
        if self.m == 0 and self.n != 0:
            object.__setattr__(self, "n", 0)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.d, self.m0, self.n, self.m)

    def multiplicities(self) -> list[int]:
        """All multiplicities, distinguished point first."""
        return [self.m0] + [self.m] * self.n

    def __str__(self) -> str:
        if self.n == 0:
            return f"L({self.d},{self.m0})"
        return f"L({self.d},{self.m0},{self.n},{self.m})"


def canonical_key(d: int, m0: int, n: int, m: int) -> tuple[int, int, int, int]:
    """Memoization key of L(d, m0, n, m), one normalised tuple per system.
    A zero n or m leaves L(d, m0), keyed (d, m0, 0, 0).  With a single extra
    point the two points are interchangeable general points, so sort (m0, m)
    descending and drop a zero one: L(d, 0, 1, m) is L(d, m)."""
    if n == 0 or m == 0:
        return (d, m0, 0, 0)
    if n == 1 and m > m0:
        return (d, m, 1, m0) if m0 else (d, m, 0, 0)
    return (d, m0, n, m)


#: Short constructor used pervasively in tests and internal code.
def L(d: int, m0: int, n: int = 0, m: int = 0) -> QuasiHomogeneousSystem:
    return QuasiHomogeneousSystem(d, m0, n, m)


@dataclass(frozen=True)
class SystemInvariants:
    v: int
    e: int
    self_int: int
    genus: int


@dataclass
class DimensionResult:
    dim: int
    status: Status
    certificate: Optional[dict] = field(default=None)


def lattice_virtual_dim(d: int, m0: int, n: int, m: int) -> int:
    """Virtual dimension of the class (d; m0, m^n); entries may be negative."""
    return d * (d + 3) // 2 - m0 * (m0 + 1) // 2 - n * m * (m + 1) // 2


def virtual_dim(L: QuasiHomogeneousSystem) -> int:
    return lattice_virtual_dim(L.d, L.m0, L.n, L.m)


def expected_dim(L: QuasiHomogeneousSystem) -> int:
    return max(-1, virtual_dim(L))


def proved(L: QuasiHomogeneousSystem, dim: int, certificate: dict) -> DimensionResult:
    """A proved dimension of L, special exactly when it exceeds e."""
    status = Status.SPECIAL_PROVED if dim > expected_dim(L) else Status.NON_SPECIAL_PROVED
    return DimensionResult(dim, status, certificate)


def invariants(L: QuasiHomogeneousSystem) -> SystemInvariants:
    """Virtual and expected dimension, self-intersection and arithmetic genus.

    The degree-genus bookkeeping satisfies v = L^2 - g + 1 exactly; this is
    checked, raising SoundnessError, because every other module leans on it.
    """
    d, m0, n, m = L.as_tuple()
    v = virtual_dim(L)
    self_int = d * d - m0 * m0 - n * m * m
    # d(d-3), m0(m0-1), m(m-1) are all even, so the division is exact.
    genus = (d * (d - 3) - m0 * (m0 - 1) - n * m * (m - 1)) // 2 + 1
    if v != self_int - genus + 1:
        raise SoundnessError(f"v != L^2 - g + 1 for {L}")
    return SystemInvariants(v=v, e=max(-1, v), self_int=self_int, genus=genus)


def trinomial_dim(d: int, m0: int, m1: int, m2: int) -> int:
    """Exact generic dimension of plane curves of degree d with three fat
    points of multiplicities m0, m1, m2.

    Three general points are projectively equivalent to the coordinate
    points, where the conditions are monomial: a monomial x^a y^b z^c of
    degree d survives iff a <= d - m0, b <= d - m1, c <= d - m2.  With T(k)
    the number of monomials of degree k (0 for k < 0), inclusion-exclusion
    over the violated bounds counts the survivors in closed form; returns
    that count minus one (so an empty system gives -1).
    """
    if d < 0:
        return -1
    if min(m0, m1, m2) < 0:
        raise ValueError("multiplicities must be non-negative")
    if max(m0, m1, m2) > d:
        return -1

    def T(k: int) -> int:
        return (k + 1) * (k + 2) // 2 if k >= 0 else 0

    count = (
        T(d)
        - T(m0 - 1) - T(m1 - 1) - T(m2 - 1)
        + T(m0 + m1 - d - 2) + T(m0 + m2 - d - 2) + T(m1 + m2 - d - 2)
        - T(m0 + m1 + m2 - 2 * d - 3)
    )
    return count - 1
