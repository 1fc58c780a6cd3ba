"""Top-level dimension and speciality classification.

For m <= 3 the answer is a theorem: a system is special exactly when it
appears in the eleven-family (-1)-special table, and then its dimension is
the tabulated one; every other system has the expected dimension.  For
m >= 4 the same machinery returns a prediction: proved closed forms where
they apply, otherwise the (-1)-curve fixed-part accounting, labelled
Conjectural.

`base_case_dim` is the one base-case dispatch (few points, the special
table, large m0), on plain (d, m0, n, m) tuples; `dimension` and the
degeneration certifier both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    DimensionResult,
    QuasiHomogeneousSystem,
    SoundnessError,
    Status,
    expected_dim,
    lattice_virtual_dim,
    proved,
)
from .core import L as _L
from .cremona import few_points_dim, large_m0_dim
from .minus_one import SpecialDecomposition, find_special_decomposition


@dataclass(frozen=True)
class SpecialTableEntry:
    """One family of the (-1)-special table for m <= 3.

    match returns the (v, l) pair of a member; every member has key (m, d - m0)."""

    name: str
    key: tuple[int, int]  # (m, d - m0)
    match: Callable[[int, int, int, int], Optional[tuple[int, int]]]


def _fixed(d0, m00, n0, m0v, v, l) -> SpecialTableEntry:
    def match(d, m0, n, m):
        return (v, l) if (d, m0, n, m) == (d0, m00, n0, m0v) else None

    return SpecialTableEntry(f"L({d0},{m00},{n0},{m0v})", (m0v, d0 - m00), match)


SPECIAL_TABLE: list[SpecialTableEntry] = [
    _fixed(4, 0, 5, 2, -1, 0),
    SpecialTableEntry(
        "L(2e,2e-2,2e,2)",
        (2, 2),
        lambda d, m0, n, m: (-1, 0)
        if m == 2 and d >= 2 and d % 2 == 0 and m0 == d - 2 and n == d
        else None,
    ),
    SpecialTableEntry(
        "L(d,d,e,2)",
        (2, 0),
        lambda d, m0, n, m: (d - 3 * n, d - 2 * n)
        if m == 2 and m0 == d and n >= 1 and d >= 2 * n
        else None,
    ),
    _fixed(4, 0, 2, 3, 2, 3),
    _fixed(6, 0, 5, 3, -3, 0),
    _fixed(6, 2, 4, 3, 0, 1),
    SpecialTableEntry(
        "L(3e,3e-3,2e,3)",
        (3, 3),
        lambda d, m0, n, m: (-3, 0)
        if m == 3 and d >= 3 and d % 3 == 0 and m0 == d - 3 and n == 2 * d // 3
        else None,
    ),
    SpecialTableEntry(
        "L(3e+1,3e-2,2e,3)",
        (3, 3),
        lambda d, m0, n, m: (1, 2)
        if m == 3 and d >= 4 and d % 3 == 1 and m0 == d - 3 and n == 2 * (d - 1) // 3
        else None,
    ),
    SpecialTableEntry(
        "L(4e,4e-2,2e,3)",
        (3, 2),
        lambda d, m0, n, m: (-1, 0)
        if m == 3 and d >= 4 and d % 4 == 0 and m0 == d - 2 and n == d // 2
        else None,
    ),
    SpecialTableEntry(
        "L(d,d-1,e,3)",
        (3, 1),
        lambda d, m0, n, m: (2 * d - 6 * n, 2 * d - 5 * n)
        if m == 3 and m0 == d - 1 and n >= 1 and 2 * d >= 5 * n
        else None,
    ),
    SpecialTableEntry(
        "L(d,d,e,3)",
        (3, 0),
        lambda d, m0, n, m: (d - 6 * n, d - 3 * n)
        if m == 3 and m0 == d and n >= 1 and d >= 3 * n
        else None,
    ),
]

#: SPECIAL_TABLE's families by key, in table order
TABLE_INDEX = {f.key: [g for g in SPECIAL_TABLE if g.key == f.key] for f in SPECIAL_TABLE}


@dataclass
class TableMatch:
    v: int
    l: int
    families: list[str]
    decomposition: Optional[SpecialDecomposition] = None


def _table_match(d: int, m0: int, n: int, m: int) -> Optional[tuple[list[str], int, int]]:
    """(families, v, l) of L(d, m0, n, m) in the special table, or None,
    trying only the families that TABLE_INDEX holds under (m, d - m0).  No
    system belongs to two families today (the fixed sporadic tuples have keys
    that hold no parametric family); should an edit make two families
    overlap, every match must agree on (v, l)."""
    families = TABLE_INDEX.get((m, d - m0))
    if families is None:
        return None
    hits = [
        (entry.name, got)
        for entry in families
        if (got := entry.match(d, m0, n, m)) is not None
    ]
    if not hits:
        return None
    values = {got for _, got in hits}
    if len(values) != 1:
        raise SoundnessError(f"table families disagree on {_L(d, m0, n, m)}: {hits}")
    (v, l) = values.pop()
    if v != lattice_virtual_dim(d, m0, n, m):
        raise SoundnessError(f"table v mismatch for {_L(d, m0, n, m)}")
    if l <= max(-1, v):
        raise SoundnessError(f"table entry for {_L(d, m0, n, m)} is not special")
    return [name for name, _ in hits], v, l


def lookup_special_table(
    L: QuasiHomogeneousSystem, with_decomposition: bool = True
) -> Optional[TableMatch]:
    """Match L against the (-1)-special table (m <= 3 only)."""
    if L.m > 3:
        raise ValueError(f"special table only covers m <= 3, got {L}")
    found = _table_match(*L.as_tuple())
    if found is None:
        return None
    families, v, l = found
    match = TableMatch(v=v, l=l, families=families)
    if with_decomposition:
        match.decomposition = find_special_decomposition(L)
    return match


def base_case_dim(d: int, m0: int, n: int, m: int, via: Optional[dict] = None) -> Optional[int]:
    """The proved dimension of L(d, m0, n, m) from a base case, or None.

    Tries, in order: few points (n <= 2 or m <= 1), the m <= 3 special
    table, and the large-m0 closed forms (m0 >= d - m - 1).  Given a dict
    `via`, it writes the certificate of the rule that answered there.  Takes
    the plain tuple, so the certifier's recursion builds no system for it."""
    if n <= 2 or m <= 1:
        return few_points_dim(d, m0, n, m, via)
    if m <= 3:
        found = _table_match(d, m0, n, m)
        if found is not None:
            families, v, l = found
            if via is not None:
                via.update(table=families, v=v)
            return l
    if m0 >= d - m - 1:
        return large_m0_dim(d, m0, n, m, via)
    return None


def dimension(L: QuasiHomogeneousSystem) -> DimensionResult:
    """Generic dimension of L with the strongest available status.

    m <= 3: exact (table families are special with the tabulated dimension,
    everything else is non-special).  m >= 4: exact in the few-point and
    large-m0 regimes, otherwise a Conjectural value from the (-1)-curve
    fixed-part accounting."""
    via: dict = {}
    dim = base_case_dim(*L.as_tuple(), via)
    if dim is not None:
        if "table" in via:
            decomp = find_special_decomposition(L)
            via["decomposition"] = decomp.to_dict() if decomp else None
        return proved(L, dim, via)
    if L.m <= 3:
        return proved(L, expected_dim(L), {"theorem": "m<=3 complete classification"})
    decomp = find_special_decomposition(L)
    if decomp is not None and decomp.residual_v > expected_dim(L):
        return DimensionResult(
            decomp.residual_v, Status.CONJECTURAL, {"decomposition": decomp.to_dict()}
        )
    return DimensionResult(expected_dim(L), Status.CONJECTURAL, {"decomposition": None})


def is_special(L: QuasiHomogeneousSystem) -> tuple[bool, DimensionResult]:
    result = dimension(L)
    return result.dim > expected_dim(L), result
