"""Quasi-homogeneous (-1)-classes, (-1)-configurations, and the fixed-part
decompositions that force speciality.

A quasi-homogeneous (-1)-class is a system with self-intersection -1 and
arithmetic genus 0; the two conditions reduce, after two changes of
variables, to factorizations x*y = (m-1)(2m+1), so the classes can be
enumerated exactly.  Orbits of non-quasi-homogeneous (-1)-curves under
permutation of the n points give the compound configurations; genus zero
and disjointness of the members solve for the member's last multiplicity
and n, so one loop over (delta, mu0) (`_minus_one_curves`) finds their
members.  A system meeting such a curve to order -N <= -2 contains it N
times in its base locus and is therefore special;
`find_special_decomposition` searches for that situation, with the
configurations on the system's n points as the candidate fixed parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .core import (
    QuasiHomogeneousSystem,
    SoundnessError,
    intersect,
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
    # The system of the whole union, built once: the decomposition search
    # reads it in its inner loop.
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

    def member_intersection(self, d: int, m0: int, m: int) -> int:
        """Intersection of one member with the class (d; m0, m^n)."""
        n_mult = self.mu1 + (self.n - 1) * self.mu2
        return d * self.delta - m0 * self.mu0 - m * n_mult

    def member_sequence(self) -> tuple[int, tuple[int, ...]]:
        """One member as (degree, multiplicities), p0 first."""
        return self.delta, (self.mu0, self.mu1) + (self.mu2,) * (self.n - 1)


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


def homogeneous_form(L: QuasiHomogeneousSystem) -> Optional[QuasiHomogeneousSystem]:
    """m0 = 0 normal form of L if it is homogeneous (m0 = 0 or m0 = m)."""
    if L.m0 == 0:
        return L
    if L.m0 == L.m:
        return _L(L.d, 0, L.n + 1, L.m)
    return None


def _minus_one_curves(delta: int):
    """The (mu0, mu1, mu2, n) with mu2 >= 1, |mu1 - mu2| = 1 and n >= 3 for
    which (delta; mu0, mu1, mu2^(n-1)) is a (-1)-class of genus zero whose
    n orbit members are pairwise disjoint, ascending in mu0.

    With s = mu1 - mu2 and a = 3 delta - 1 - mu0, genus zero gives
    (n - 1) mu2 = a - mu1, so n mu2 = a - s, and disjointness gives
    delta^2 - mu0^2 - 2 mu1 mu2 = (n - 2) mu2^2; together they pin
    mu2 = (delta^2 - mu0^2) / (a + s).  They imply self-intersection -1:
    L^2 minus the disjointness form is -(mu1 - mu2)^2.  For mu0 < delta,
    a + s >= 2 delta - 1 >= 1, and mu2 <= delta and n >= 3 follow.
    mu0 = delta gives mu2 = 0, except for the 0 / 0 of (1; 1, 0, 1) on
    n = 2 points: the two lines through p0, an orbit of the mu2 = 0 family.
    Both signs at one mu0 would need mu2 | a - 1 with (a + 1) mu2 =
    delta^2 - mu0^2, and the same with the signs swapped, which forces
    delta^2 - mu0^2 >= (a^2 - 1) / 2 > delta^2, as a >= 2 delta: at most one
    sign solves."""
    for mu0 in range(delta):
        a = 3 * delta - 1 - mu0
        for s in (1, -1):
            mu2, r = divmod(delta**2 - mu0**2, a + s)
            if r == 0 and (a - s) % mu2 == 0:
                yield mu0, mu2 + s, mu2, (a - s) // mu2


@lru_cache(maxsize=256)
def enumerate_configurations(
    m_max: int, e_max: int = DEFAULT_E_MAX
) -> tuple[MinusOneConfiguration, ...]:
    """Quasi-homogeneous (-1)-configurations with total multiplicity
    m = mu1 + (n-1) mu2 <= m_max.

    Compound case: for mu2 >= 1, genus zero and disjointness solve for mu2
    and n given delta, mu0 and the sign of mu1 - mu2 (`_minus_one_curves`,
    one candidate per sign), and the member must be a genuine (-1)-curve,
    reducing to a line by Cremona transformations; mu2 = 0 forces
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
    # Genus 0 gives 3 delta - mu0 - m = 1 and mu0 <= delta, so m >= 2 delta - 1.
    for delta in range(1, (m_max + 1) // 2 + 1):
        for mu0, mu1, mu2, n in _minus_one_curves(delta):
            if mu1 + (n - 1) * mu2 > m_max:
                continue
            cfg = MinusOneConfiguration(delta, mu0, mu1, mu2, n)
            # The member must be an actual curve.
            if reduces_to_line(*cfg.member_sequence())[0]:
                found.append(cfg)
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
    for other in enumerate_qh_classes(m_max=max(1, L.m), e_max=max(L.n, 1)):
        o = other.system
        if o.n != L.n or o.as_tuple() == L.as_tuple():
            continue
        pairing = intersect(L, o, L.n)
        if pairing < 0 and reduces_to_line(o.d, o.multiplicities())[0]:
            residual = (L.d - o.d, L.m0 - o.m0, L.n, L.m - o.m)
            return {
                "class": o.as_tuple(),
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


def candidates_for(L: QuasiHomogeneousSystem) -> tuple[MinusOneConfiguration, ...]:
    """The (-1)-curve orbits on exactly the n points of L: the irreducible
    single curves first, then the compound orbits."""
    return _candidates_cached(L.n, L.m)


@lru_cache(maxsize=4096)
def _candidates_cached(n: int, m: int) -> tuple[MinusOneConfiguration, ...]:
    configs = enumerate_configurations(m_max=max(1, m), e_max=max(DEFAULT_E_MAX, n))
    on_n = [c for c in configs if c.n == n]
    singles = [
        c for c in on_n if not c.compound and reduces_to_line(*c.member_sequence())[0]
    ]
    return tuple(singles + [c for c in on_n if c.compound])


def _pairwise_disjoint(fixed: list[tuple[MinusOneConfiguration, int]], n: int) -> bool:
    # members placed with their mu1-points at distinct base points
    return all(
        di * dj - a0 * b0 - a1 * b2 - a2 * b1 - (n - 2) * a2 * b2 == 0
        for (di, a0, a1, a2), (dj, b0, b1, b2) in combinations(
            [c.curve for c, _ in fixed], 2
        )
    )


def find_special_decomposition(L: QuasiHomogeneousSystem) -> Optional[SpecialDecomposition]:
    """Fixed-part decomposition L = sum N_j A_j + M with some N_j >= 2,
    v(M) >= 0, and M meeting the enumerated curves non-negatively; None if
    no enumerated curve orbit meets L to order <= -2."""
    candidates = candidates_for(L)
    d, m0, n, m = L.as_tuple()
    fixed: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for idx, cand in enumerate(candidates):
            t = cand.member_intersection(d, m0, m)
            if t <= -2:
                N = -t
                fixed[idx] = fixed.get(idx, 0) + N
                td, tm0, tm = cand.total.d, cand.total.m0, cand.total.m
                d, m0, m = d - N * td, m0 - N * tm0, m - N * tm
                if d < 0 or m0 < 0 or m < 0:
                    # the forced fixed part exceeds the system: no effective
                    # residual exists (the system is empty, not special)
                    return None
                changed = True
    # A pass that changed nothing ended the loop: no candidate meets M at <= -2.
    if not fixed:
        return None
    parts = [(candidates[i], N) for i, N in fixed.items()]
    if not _pairwise_disjoint(parts, n):
        return None
    res_v = lattice_virtual_dim(d, m0, n, m)
    if res_v < 0:
        return None
    # Fixed-part accounting (residual v minus system v) is exact; the sum
    # runs over individual curves, so an orbit contributes once per member.
    if res_v - virtual_dim(L) != sum(c.count * N * (N - 1) // 2 for c, N in parts):
        labels = [(c.label, N) for c, N in parts]
        raise SoundnessError(f"fixed-part accounting fails for {L}: {labels}")
    return SpecialDecomposition(fixed_parts=parts, residual=(d, m0, n, m), residual_v=res_v)
