"""Quasi-homogeneous (-1)-classes, (-1)-configurations, and the fixed-part
decompositions that force speciality.

A quasi-homogeneous (-1)-class (d; m0, m^n) has self-intersection -1 and
arithmetic genus 0.  Listed by m, the two conditions reduce, after two
changes of variables, to factorizations x*y = (m-1)(2m+1)
(`hyperbola_solutions`); on a fixed n they are one quadratic in d for each
m (`_classes_on`).  Orbits of non-quasi-homogeneous (-1)-curves under
permutation of the n points give the compound configurations; on a fixed n,
genus zero and disjointness of the members are one quadratic in mu0 for
each delta (`_minus_one_curves`).  A system meeting such a curve to order
-N <= -2 contains it N times in its base locus and is therefore special;
`find_special_decomposition` searches for that situation, with the curves
on the system's own n points (`candidates_for`) as the candidate fixed
parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import Optional

from .core import (
    QuasiHomogeneousSystem,
    SoundnessError,
    invariants,
    lattice_virtual_dim,
    virtual_dim,
)
from .core import L as _L
from .cremona import reduces_to_line

DEFAULT_E_MAX = 50


@dataclass(frozen=True)
class MinusOneClass:
    system: QuasiHomogeneousSystem
    family: str  # "Line" | "Conic5" | "LinePencil" | "Hyperbola"
    witness: Optional[tuple[int, int]] = None  # (x, y) for the Hyperbola family
    e: Optional[int] = None  # parameter of the LinePencil family


@dataclass(frozen=True)
class MinusOneConfiguration:
    """A quasi-homogeneous union of disjoint (-1)-curves on n points.

    Compound case (count = n): the full orbit of a curve of shape
    (delta; mu0, mu1, mu2^(n-1)) under permutation of the n points, one
    member per choice of the mu1 point.  Non-compound case (count = 1): a
    single quasi-homogeneous (-1)-curve, recorded with mu1 = mu2."""

    delta: int
    mu0: int
    mu1: int
    mu2: int
    n: int
    count: int = -1  # defaults to n (orbit case)
    # The system of the whole union, built once for `label`, the sort in
    # enumerate_configurations, SpecialDecomposition.to_dict and the rows of
    # `enumerate --configurations` (the search reads `_candidates`' tuples).
    total: QuasiHomogeneousSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.count == -1:
            object.__setattr__(self, "count", self.n)
        if self.count not in (1, self.n):
            raise ValueError("count must be 1 or n")
        if self.count == 1 and self.mu1 != self.mu2:
            raise ValueError("a single curve has one multiplicity at the n points")
        if self.count == 1:
            total = _L(self.delta, self.mu0, self.n, self.mu1)
        else:
            n = self.n
            total = _L(n * self.delta, n * self.mu0, n, self.mu1 + (n - 1) * self.mu2)
        object.__setattr__(self, "total", total)

    @property
    def curve(self) -> tuple[int, int, int, int]:
        return (self.delta, self.mu0, self.mu1, self.mu2)

    @property
    def compound(self) -> bool:
        return self.count >= 2

    @property
    def label(self) -> str:
        if not self.compound:
            return str(self.total)
        return f"orbit({self.delta};{self.mu0},{self.mu1},{self.mu2}^{self.n - 1})"


def _is_minus_one_class(L: QuasiHomogeneousSystem) -> bool:
    inv = invariants(L)
    return inv.self_int == -1 and inv.genus == 0


def hyperbola_solutions(m: int) -> list[tuple[int, int]]:
    """Factorizations x*y = (m-1)(2m+1) giving a (-1)-class for this m:
    x + m >= y, x - y = m (mod 2), and m | x + 2y - 1.  Ascending in x."""
    target = (m - 1) * (2 * m + 1)
    low, high = [], []  # divisors up to and above sqrt(target)
    x = 1
    while x * x <= target:
        if target % x == 0:
            low.append(x)
            if x * x != target:
                high.append(target // x)
        x += 1
    out = []
    for x in low + high[::-1]:
        y = target // x
        if x + m >= y and (x - y - m) % 2 == 0 and (x + 2 * y - 1) % m == 0:
            out.append((x, y))
    return out


def _hyperbola_class(m: int, x: int, y: int) -> MinusOneClass:
    d = (x + y + 3 * m) // 2
    m0 = (x - y + m) // 2
    n = (x + 2 * y - 1) // m + 4
    return MinusOneClass(_L(d, m0, n, m), family="Hyperbola", witness=(x, y))


@lru_cache(maxsize=256)
def enumerate_qh_classes(
    m_max: int, e_max: int = DEFAULT_E_MAX
) -> tuple[MinusOneClass, ...]:
    """All quasi-homogeneous (-1)-classes with m <= m_max; the infinite
    pencil family (e, e-1, 2e, 1) is truncated at e_max."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if e_max < 0:
        raise ValueError("e_max must be >= 0")
    classes = [
        MinusOneClass(_L(1, 1, 1, 1), family="Line"),
        MinusOneClass(_L(2, 0, 5, 1), family="Conic5"),
    ]
    classes += [
        MinusOneClass(_L(e, e - 1, 2 * e, 1), family="LinePencil", e=e)
        for e in range(1, e_max + 1)
    ]
    for m in range(2, m_max + 1):
        for x, y in hyperbola_solutions(m):
            classes.append(_hyperbola_class(m, x, y))
    classes.sort(key=lambda c: (c.system.m, c.system.d, c.system.m0))
    for c in classes:
        if not _is_minus_one_class(c.system):
            raise SoundnessError(f"{c} is not a (-1)-class")
    return tuple(classes)


def _classes_on(n: int, m_max: int) -> list[tuple[int, int, int]]:
    """The (-1)-classes (d; m0, m^n) on exactly n points with m <= m_max, as
    (d, m0, m) ascending in (m, d): the classes of `enumerate_qh_classes`
    with this n, whatever their degree.

    At m = 1 they are built directly: the line (1; 1, 1) on n = 1, the conic
    (2; 0, 1^5) on n = 5 and the pencil member (e; e-1, 1^2e) on n = 2e.
    For m >= 2, genus zero gives m0 = 3d - c with c = 1 + nm, and then
    self-intersection -1 reads 8d^2 - 6cd + c^2 + nm^2 - 1 = 0, so
    d = (3c ± r) / 8 with r^2 = c^2 - 8(nm^2 - 1).  A root is the class of
    the factorization x*y = (m-1)(2m+1) with x = d + m0 - 2m and
    y = d - m0 - m; `hyperbola_solutions` asks x + m >= y, which is m0 >= 0,
    and a positive y, which makes x positive too."""
    classes = []
    if n == 1:
        classes.append((1, 1, 1))
    if n == 5:
        classes.append((2, 0, 1))
    if n >= 2 and n % 2 == 0:
        classes.append((n // 2, n // 2 - 1, 1))
    for m in range(2, m_max + 1):
        c = 1 + n * m
        disc = c * c - 8 * (n * m * m - 1)
        r = isqrt(max(disc, 0))
        if r * r != disc:
            continue
        for num in sorted({3 * c - r, 3 * c + r}):
            d, rem = divmod(num, 8)
            m0 = 3 * d - c
            if rem == 0 and m0 >= 0 and d - m0 - m >= 1:
                classes.append((d, m0, m))
    return classes


def _is_curve(d: int, m0: int, n: int, k: int) -> bool:
    """Whether the (-1)-class (d; m0, k^n) of `_classes_on` is a curve: by
    its family when k = 1 (see `candidates_for`), else when it reduces to a
    line."""
    return k == 1 or reduces_to_line(d, (m0,) + (k,) * n)[0]


def homogeneous_form(L: QuasiHomogeneousSystem) -> Optional[QuasiHomogeneousSystem]:
    """m0 = 0 normal form of L if it is homogeneous (m0 = 0 or m0 = m)."""
    if L.m0 == 0:
        return L
    if L.m0 == L.m:
        return _L(L.d, 0, L.n + 1, L.m)
    return None


def _minus_one_curves(n: int, m_max: int):
    """The (delta, mu0, mu1, mu2) with mu0 < delta, mu2 >= 1 and
    |mu1 - mu2| = 1 for which the n members of the orbit of
    (delta; mu0, mu1, mu2^(n-1)) are pairwise disjoint classes of genus zero
    with total multiplicity mu1 + (n - 1) mu2 <= m_max, ascending in
    (delta, mu0).

    With s = mu1 - mu2 and a = 3 delta - 1 - mu0, the total multiplicity,
    genus zero gives n mu2 = a - s, and disjointness gives
    delta^2 - mu0^2 = n mu2^2 + 2 s mu2 = (a^2 - 1) / n, that is
    (n + 1) mu0^2 - 2 (3 delta - 1) mu0 + (3 delta - 1)^2 - 1 - n delta^2 = 0.
    So mu0 = (3 delta - 1 ± r) / (n + 1) with
    r^2 = (n + 1)(n delta^2 + 1) - n (3 delta - 1)^2, and then s is the sign
    with a = s (mod n), one at most for n >= 3.  They imply
    self-intersection -1: L^2 minus the disjointness form is
    -(mu1 - mu2)^2.  For mu0 < delta, a + s >= 2 delta - 1 >= 1, and
    mu2 <= delta and n >= 3 follow, so n = 1, 2 give nothing; a >= 2 delta - 1
    bounds delta by (m_max + 1) / 2.
    mu0 = delta gives mu2 = 0: the lines through p0, which
    `candidates_for` and `enumerate_configurations` build as (1; 1, 1, 0)."""
    for delta in range(1, (m_max + 1) // 2 + 1):
        b = 3 * delta - 1
        disc = (n + 1) * (n * delta * delta + 1) - n * b * b
        r = isqrt(max(disc, 0))
        if r * r != disc:
            continue
        for num in sorted({b - r, b + r}):
            mu0, rem = divmod(num, n + 1)
            a = b - mu0
            if rem or not 0 <= mu0 < delta or a > m_max:
                continue
            s = 1 if a % n == 1 else -1
            mu2, rem = divmod(a - s, n)
            if rem == 0:
                yield delta, mu0, mu2 + s, mu2


def _orbits_on(n: int, m_max: int) -> list[tuple[int, int, int, int]]:
    """The orbits of `_minus_one_curves(n, m_max)` whose member is a curve:
    it reduces to a line by Cremona transformations."""
    return [
        curve
        for curve in _minus_one_curves(n, m_max)
        if reduces_to_line(curve[0], curve[1:3] + (curve[3],) * (n - 1))[0]
    ]


@lru_cache(maxsize=256)
def enumerate_configurations(
    m_max: int, e_max: int = DEFAULT_E_MAX
) -> tuple[MinusOneConfiguration, ...]:
    """Quasi-homogeneous (-1)-configurations with total multiplicity
    m = mu1 + (n-1) mu2 <= m_max.

    Compound case: for mu2 >= 1 the orbits of `_orbits_on(n, m_max)` over
    n = 3..m_max + 1 (a member has m = n mu2 ± 1 >= n - 1); mu2 = 0 forces
    (delta, mu0, mu1) = (1, 1, 1), the family of the e lines through p0,
    truncated at e_max.  Non-compound case: every quasi-homogeneous
    (-1)-class counts as a single-curve configuration.
    """
    found: list[MinusOneConfiguration] = []
    # Single-curve configurations.
    for c in enumerate_qh_classes(m_max, e_max=e_max):
        s = c.system
        found.append(
            MinusOneConfiguration(s.d, s.m0, s.m, s.m, n=s.n, count=1)
        )
    # The lines-through-p0 family (delta, mu0, mu1, mu2) = (1, 1, 1, 0).
    found += [MinusOneConfiguration(1, 1, 1, 0, n=e) for e in range(2, e_max + 1)]
    found += [
        MinusOneConfiguration(*curve, n)
        for n in range(3, m_max + 2)
        for curve in _orbits_on(n, m_max)
    ]
    found.sort(key=lambda c: (c.total.m, c.total.d, c.total.m0, c.n))
    return tuple(found)


def is_irreducible_class(c: MinusOneClass) -> tuple[bool, dict]:
    """Whether the (-1)-class contains an irreducible (-1)-curve.

    Criterion: greedy quadratic Cremona transformations (always the three
    largest multiplicities) reach the line through two points.  On failure
    the trace names an irreducible class met negatively, if one exists."""
    if not _is_minus_one_class(c.system):
        raise ValueError(f"{c.system} is not a (-1)-class")
    ok, trace = reduces_to_line(c.system.d, c.system.multiplicities())
    cert: dict = {"trace": trace}
    if not ok:
        blocker = _blocking_class(c.system)
        if blocker is not None:
            cert["blocking_class"] = blocker
    return ok, cert


def _blocking_class(L: QuasiHomogeneousSystem) -> Optional[dict]:
    d, m0, n, m = L.as_tuple()
    for od, om0, om in _classes_on(n, m):
        pairing = d * od - m0 * om0 - n * m * om
        if pairing < 0 and (od, om0, om) != (d, m0, m) and _is_curve(od, om0, n, om):
            residual = (d - od, m0 - om0, n, m - om)
            return {
                "class": (od, om0, n, om),
                "intersection": pairing,
                "residual": residual,
                "residual_v": lattice_virtual_dim(*residual),
            }
    return None


# ---------------------------------------------------------------------------
# (-1)-special decompositions.
# ---------------------------------------------------------------------------


@dataclass
class SpecialDecomposition:
    fixed_parts: list[tuple[MinusOneConfiguration, int]]
    residual: tuple[int, int, int, int]  # lattice data; entries may be negative
    residual_v: int

    def to_dict(self) -> dict:
        return {
            "fixed_parts": [
                {"curve": c.label, "total": c.total.as_tuple(), "N": N,
                 "curves": c.count}
                for c, N in self.fixed_parts
            ],
            "residual": self.residual,
            "residual_v": self.residual_v,
        }


def candidates_for(L: QuasiHomogeneousSystem) -> tuple[tuple[int, int, int, int, int], ...]:
    """The (-1)-curves and curve orbits on exactly the n points of L, as
    (delta, mu0, mu1, mu2, count): a member is (delta; mu0, mu1, mu2^(n-1))
    and count is 1 for a single curve (mu1 = mu2) or n for an orbit.  The
    single curves come first, ascending in (mu1, delta), then the orbits,
    ascending in (total multiplicity, delta).

    A class with mu1 = 1 is a curve by its family: the line, the conic
    through five points, or the pencil member (e; e-1, 1^2e).  One quadratic
    transformation at p0 and two simple points maps that member to
    (e-1; e-2, 1^(2e-2)), so by induction it reaches the line through two
    points in e - 1 steps.  Every other class, and the member of every
    orbit with mu2 >= 1, must reduce to a line; the n lines through p0 are
    the orbit of a line."""
    return _candidates(L.n, L.m)


@lru_cache(maxsize=4096)
def _candidates(n: int, m: int) -> tuple[tuple[int, int, int, int, int], ...]:
    singles = [(d, m0, k, k, 1) for d, m0, k in _classes_on(n, m) if _is_curve(d, m0, n, k)]
    # The n lines through p0, then the orbits with mu2 >= 1.
    orbits = [(1, 1, 1, 0, n)] if n >= 2 else []
    orbits += [
        curve + (n,)
        for curve in sorted(_orbits_on(n, m), key=lambda c: (c[2] + (n - 1) * c[3], c[0]))
    ]
    return tuple(singles + orbits)


def _pairwise_disjoint(curves: list[tuple[int, ...]], n: int) -> bool:
    # members placed with their mu1-points at distinct base points
    return all(
        di * dj - a0 * b0 - a1 * b2 - a2 * b1 - (n - 2) * a2 * b2 == 0
        for (di, a0, a1, a2, _), (dj, b0, b1, b2, _) in combinations(curves, 2)
    )


def find_special_decomposition(L: QuasiHomogeneousSystem) -> Optional[SpecialDecomposition]:
    """Fixed-part decomposition L = sum N_j A_j + M with some N_j >= 2,
    v(M) >= 0, and M meeting the candidate curves non-negatively; None if
    no candidate curve orbit meets L to order <= -2.  The search runs on the
    candidates' int tuples; only the fixed parts it returns become
    `MinusOneConfiguration`s, each at most L, as the search stops once the
    fixed part exceeds the system."""
    candidates = candidates_for(L)
    d, m0, n, m = L.as_tuple()
    fixed: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for idx, (delta, mu0, mu1, mu2, count) in enumerate(candidates):
            t = d * delta - m0 * mu0 - m * (mu1 + (n - 1) * mu2)
            if t <= -2:
                N = -t
                fixed[idx] = fixed.get(idx, 0) + N
                # the count members together pass mu1 + (count - 1) mu2
                # times through each of the n points
                d, m0 = d - N * count * delta, m0 - N * count * mu0
                m -= N * (mu1 + (count - 1) * mu2)
                if d < 0 or m0 < 0 or m < 0:
                    # the forced fixed part exceeds the system: no effective
                    # residual exists (the system is empty, not special)
                    return None
                changed = True
    # A pass that changed nothing ended the loop: no candidate meets M at <= -2.
    if not fixed:
        return None
    if not _pairwise_disjoint([candidates[i] for i in fixed], n):
        return None
    res_v = lattice_virtual_dim(d, m0, n, m)
    if res_v < 0:
        return None
    parts = [
        (MinusOneConfiguration(*candidates[i][:4], n, count=candidates[i][4]), N)
        for i, N in fixed.items()
    ]
    # Fixed-part accounting (residual v minus system v) is exact; the sum
    # runs over individual curves, so an orbit contributes once per member.
    if res_v - virtual_dim(L) != sum(c.count * N * (N - 1) // 2 for c, N in parts):
        labels = [(c.label, N) for c, N in parts]
        raise SoundnessError(f"fixed-part accounting fails for {L}: {labels}")
    return SpecialDecomposition(fixed_parts=parts, residual=(d, m0, n, m), residual_v=res_v)
