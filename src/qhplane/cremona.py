"""Quadratic Cremona transformations and the large-m0 dimension theory.

A quadratic transformation based at three of the base points sends degree d
to 2d - mi - mj - mk and adjusts the three multiplicities; it preserves the
generic dimension of the system and (when all entries stay non-negative)
the virtual dimension.  Systems L(d, m0, n, m) with m0 within one of d - m
reduce, by splitting off the lines through p0 and by Cremona
transformations, to closed-form dimensions; those closed forms are the
workhorse base cases of the degeneration recursion.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    DimensionResult,
    QuasiHomogeneousSystem,
    lattice_virtual_dim,
    proved,
    trinomial_dim,
)
from .core import L as _L


def _state(d: int, mults: Sequence[int]) -> str:
    """A state as a failure's trace entry names it: (d; m1, m2, ...)."""
    return f"({d}; {', '.join(map(str, mults))})"


def quadratic_transform(
    d: int, mults: Sequence[int], i: int, j: int, k: int
) -> tuple[int, tuple[int, ...]]:
    """Transform of (d; mults) based at the points indexed i, j, k.

    Negative entries are allowed (the transformation acts on the Picard
    lattice); returns the new (degree, multiplicities)."""
    if len({i, j, k}) != 3:
        raise ValueError("base point indices must be distinct")
    for idx in (i, j, k):
        if idx < 0 or idx >= len(mults):
            raise IndexError(f"index {idx} out of range")
    mi, mj, mk = mults[i], mults[j], mults[k]
    out = list(mults)
    out[i] = d - mj - mk
    out[j] = d - mi - mk
    out[k] = d - mi - mj
    return 2 * d - mi - mj - mk, tuple(out)


def reduces_to_line(d: int, mults: Sequence[int]) -> tuple[bool, list[dict]]:
    """Greedy Cremona reduction of (d; mults) towards the line through two
    points (1; 1, 1).

    Pivots on the three largest multiplicities, ties broken by index.
    Succeeds iff the reduction reaches (1; 1, 1) through states with
    non-negative entries and strictly decreasing degree; used as the
    numerical irreducibility criterion for (-1)-classes.  The
    input is checked once; a step changes only the degree and the pivots, so
    only those are checked after it.  A step's trace entry is its pivot into
    the state with zeros dropped, padded to three entries; a failure entry
    names its state.  Each pass returns or lowers the degree, which stays
    positive, so the loop ends within d passes.
    """
    trace: list[dict] = []
    cur = tuple(filter(None, mults))
    if d < 1 or any(m < 0 for m in cur):
        trace.append({"state": _state(d, cur), "fail": "negative entry"})
        return False, trace
    while True:
        if d == 1 and cur == (1, 1):
            return True, trace
        padded = cur + (0,) * (3 - len(cur))
        # The indices of the three largest entries, a tie going to the
        # lower index: a stable reverse sort of the indices by entry.
        a, b, c = sorted(padded, reverse=True)[:3]
        i = padded.index(a)
        j = padded.index(b, i + 1) if b == a else padded.index(b)
        k = padded.index(c, j + 1) if c == b else padded.index(c)
        nd, nxt = quadratic_transform(d, padded, i, j, k)
        if nd >= d:
            trace.append({"state": _state(d, cur), "fail": "degree does not decrease"})
            return False, trace
        trace.append({"pivot": (i, j, k)})
        if nd < 1 or min(nxt[i], nxt[j], nxt[k]) < 0:
            trace.append({"state": _state(nd, nxt), "fail": "negative entry"})
            return False, trace
        d, cur = nd, tuple(filter(None, nxt))


# ---------------------------------------------------------------------------
# Closed forms for m0 >= d - m - 1.  Each *_dim function takes the tuple
# (d, m0, n, m) and returns the proved dimension; given a dict `via`, it also
# writes the certificate of the rule it used there.  The dim_* wrappers
# return that dimension with its certificate, its status (special or not)
# following by core.proved.
# ---------------------------------------------------------------------------


def _proved_by(closed_form, L: QuasiHomogeneousSystem) -> DimensionResult:
    via: dict = {}
    return proved(L, closed_form(*L.as_tuple(), via), via)


def few_points_dim(d: int, m0: int, n: int, m: int, via: Optional[dict] = None) -> int:
    """Exact dimension when there are at most three fat points in total
    (n <= 2) or all the n points are simple (m <= 1): simple general points
    impose independent conditions on L(d, m0), which is non-special, so the
    dimension is the expected one."""
    if n <= 2:
        dim = trinomial_dim(d, m0, m if n >= 1 else 0, m if n >= 2 else 0)
    elif m <= 1:
        dim = max(-1, lattice_virtual_dim(d, m0, n, m))
    else:
        raise ValueError(f"{_L(d, m0, n, m)} has more than two equal fat points")
    if via is not None:
        via["base"] = "few-points"
    return dim


def m0_eq_d_minus_m_dim(d: int, m0: int, n: int, m: int, via: Optional[dict] = None) -> int:
    """Closed form for L(d, d-m, n, m), 2 <= m <= d.

    With d = qm + mu (0 <= mu < m) and n = 2h + eps, the system is special
    exactly when q = h, eps = 0 and mu <= m - 2.
    """
    if not (2 <= m <= d) or m0 != d - m:
        raise ValueError(f"{_L(d, m0, n, m)} is not of the form L(d, d-m, n, m) with 2 <= m <= d")
    q, mu = divmod(d, m)
    h, eps = divmod(n, 2)
    if via is not None:
        via.update(base="m0=d-m", q=q, mu=mu, h=h, eps=eps)
    if q >= h + 1:
        return lattice_virtual_dim(d, m0, n, m)
    if q == h and eps == 0:
        return mu * (mu + 3) // 2
    return -1


def m0_eq_d_minus_m_minus_1_dim(
    d: int, m0: int, n: int, m: int, via: Optional[dict] = None
) -> int:
    """Closed form for L(d, d-m-1, n, m), 2 <= m <= d-1.

    Here d = q(m-1) + mu with 0 <= mu <= m-2, n = 2h + eps.  Outside the two
    exceptional strata the dimension is the expected one."""
    if not (2 <= m <= d - 1) or m0 != d - m - 1:
        raise ValueError(
            f"{_L(d, m0, n, m)} is not of the form L(d, d-m-1, n, m) with 2 <= m <= d-1"
        )
    q, mu = divmod(d, m - 1)
    h, eps = divmod(n, 2)
    if via is not None:
        via.update(base="m0=d-m-1", q=q, mu=mu, h=h, eps=eps)
    if q == h + 1 and mu == 0 and eps == 0 and (m - 1) * (m + 2) >= 4 * h:
        return (m - 1) * (m + 2) // 2 - 2 * h
    if q == h and eps == 0 and 4 * q <= mu * (mu + 3):
        return mu * (mu + 3) // 2 - 2 * q
    return max(-1, lattice_virtual_dim(d, m0, n, m))


def m0_ge_d_minus_m_dim(d: int, m0: int, n: int, m: int, via: Optional[dict] = None) -> int:
    """Dimension of L(d, m0, n, m) with m0 >= d - m, via splitting off the n
    lines through p0.

    Covers m0 > d (empty), m0 = d and m0 = d - 1 directly, and reduces
    m0 = d - m + k (k >= 1) to the residual L(d-kn, d-kn-m+k, n, m-k)."""
    if n == 0 or m == 0:
        return few_points_dim(d, m0, n, m, via)
    if m0 > d or m > d:
        if via is not None:
            via["base"] = "mult>deg"
        return -1
    if m0 < d - m:
        raise ValueError(f"{_L(d, m0, n, m)} has m0 < d - m")
    if m0 == d - m:
        closed_form = few_points_dim if m == 1 else m0_eq_d_minus_m_dim
        return closed_form(d, m0, n, m, via)
    k = m0 - (d - m)
    # Each line through p0 and a base point meets the system in
    # m0 + m > d points, so splits off; iterated k times per line.
    rd, rm0, rm = d - k * n, m0 - k * n, m - k
    if via is not None:
        via.update(base="m0=d-m+k", k=k, residual=(rd, max(rm0, 0), n, max(rm, 0)))
    if rd < 0 or rm0 < 0:
        # More line splittings were forced than the degree or p0 could
        # absorb: the leftover multiplicities exceed the leftover degree.
        return -1
    if rm <= 0:
        # Residual has no conditions at the n points (m0 = d case included).
        return trinomial_dim(rd, rm0, 0, 0)
    dim = m0_ge_d_minus_m_dim(rd, rm0, n, rm)
    if via is not None:
        via["residual_status"] = proved(_L(rd, rm0, n, rm), dim, {}).status.value
    return dim


def large_m0_dim(d: int, m0: int, n: int, m: int, via: Optional[dict] = None) -> int:
    """Dispatch for the whole m0 >= d - m - 1 regime."""
    if n <= 2 or m <= 1:
        return few_points_dim(d, m0, n, m, via)
    if m0 >= d - m:  # includes m0 > d and m > d
        return m0_ge_d_minus_m_dim(d, m0, n, m, via)
    if m0 == d - m - 1:
        return m0_eq_d_minus_m_minus_1_dim(d, m0, n, m, via)
    raise ValueError(f"{_L(d, m0, n, m)} has m0 < d - m - 1")


def dim_few_points(L: QuasiHomogeneousSystem) -> DimensionResult:
    """few_points_dim of L with its certificate."""
    return _proved_by(few_points_dim, L)


def dim_m0_eq_d_minus_m(L: QuasiHomogeneousSystem) -> DimensionResult:
    """m0_eq_d_minus_m_dim of L with its certificate."""
    return _proved_by(m0_eq_d_minus_m_dim, L)


def dim_m0_eq_d_minus_m_minus_1(L: QuasiHomogeneousSystem) -> DimensionResult:
    """m0_eq_d_minus_m_minus_1_dim of L with its certificate."""
    return _proved_by(m0_eq_d_minus_m_minus_1_dim, L)


def dim_m0_ge_d_minus_m(L: QuasiHomogeneousSystem) -> DimensionResult:
    """m0_ge_d_minus_m_dim of L with its certificate."""
    return _proved_by(m0_ge_d_minus_m_dim, L)


def dim_large_m0(L: QuasiHomogeneousSystem) -> DimensionResult:
    """large_m0_dim of L with its certificate."""
    return _proved_by(large_m0_dim, L)
