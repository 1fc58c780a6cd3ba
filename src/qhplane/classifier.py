"""Top-level dimension and speciality classification.

For m <= 3 the answer is a theorem: a system is special exactly when it
appears in the eleven-family (-1)-special table (tables.OBIRREG23_ROWS),
and then its dimension is the tabulated one; every other system has the
expected dimension.  Nine of the eleven families lie in the few-point
(n <= 2) or large-m0 (m0 >= d - m - 1) strata, whose proved dims agree with
the table on every member, so only L(4,0,5,2) and L(6,0,5,3) need a rule of
their own.  For m >= 4 the same machinery returns a prediction: proved
closed forms where they apply, otherwise the (-1)-curve fixed-part
accounting, labelled Conjectural.

`base_case_dim` is the one base-case dispatch (few points, large m0, the
two sporadic systems), on plain (d, m0, n, m) tuples; `dimension` and the
degeneration certifier both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    DimensionResult,
    QuasiHomogeneousSystem,
    Status,
    expected_dim,
    proved,
    virtual_dim,
)
from .cremona import few_points_dim, large_m0_dim
from .minus_one import SpecialDecomposition, find_special_decomposition

#: The special systems outside the few-point and large-m0 strata, with their
#: dims: the conic through five points, doubled and tripled.
SPORADIC = {(4, 0, 5, 2): 0, (6, 0, 5, 3): 0}


@dataclass
class TableMatch:
    v: int
    l: int
    decomposition: Optional[SpecialDecomposition] = None


def lookup_special_table(
    L: QuasiHomogeneousSystem, with_decomposition: bool = True
) -> Optional[TableMatch]:
    """Match L against the (-1)-special table (m <= 3 only).

    By the m <= 3 theorem the table's members are exactly the systems that
    base_case_dim proves special, so that is how a member is found."""
    if L.m > 3:
        raise ValueError(f"special table only covers m <= 3, got {L}")
    l = base_case_dim(*L.as_tuple())
    if l is None or l <= expected_dim(L):
        return None
    decomposition = find_special_decomposition(L) if with_decomposition else None
    return TableMatch(v=virtual_dim(L), l=l, decomposition=decomposition)


def base_case_dim(d: int, m0: int, n: int, m: int, via: Optional[dict] = None) -> Optional[int]:
    """The proved dimension of L(d, m0, n, m) from a base case, or None.

    Tries, in order: few points (n <= 2 or m <= 1), the large-m0 closed
    forms (m0 >= d - m - 1), and the two SPORADIC systems.  Given a dict
    `via`, it writes the certificate of the rule that answered there.  Takes
    the plain tuple, so the certifier's recursion builds no system for it."""
    if n <= 2 or m <= 1:
        return few_points_dim(d, m0, n, m, via)
    if m0 >= d - m - 1:
        return large_m0_dim(d, m0, n, m, via)
    dim = SPORADIC.get((d, m0, n, m))
    if dim is not None and via is not None:
        via["base"] = "sporadic"
    return dim


def dimension(L: QuasiHomogeneousSystem) -> DimensionResult:
    """Generic dimension of L with the strongest available status.

    m <= 3: exact (a base case, else non-special by the classification).
    m >= 4: exact in the few-point and large-m0 regimes, otherwise a
    Conjectural value from the (-1)-curve fixed-part accounting."""
    via: dict = {}
    dim = base_case_dim(*L.as_tuple(), via)
    if dim is not None:
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
