"""(k,b)-degenerations and the recursive non-speciality certifier.

Degenerating the plane to a union P cup F splits L(d, m0, n, m) into a
system on each piece; the limit dimension l0 is computable from the four
subsystem dimensions and bounds the generic dimension from above by
semicontinuity.  Whenever l0 equals the expected dimension, the system is
proved non-special (empty if v <= -1).  The certifier recurses on the
subsystems, with the classifier's proved base cases (few points, the
(-1)-special table, the closed forms of the large-m0 theory) as leaves,
and memoizes by canonical system tuple.  Outcomes use core.Status.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from . import classifier
from .core import QuasiHomogeneousSystem, Status, expected_dim, virtual_dim
from .core import L as _L


class BudgetExceeded(RuntimeError):
    """Raised when the certifier's node budget is exhausted."""


CACHE_VERSION = 1
CACHE_ENV_VAR = "QHPLANE_CACHE"
#: fallback (k, b) splits tried per node after the paper-guided ones
MAX_SPLITS_PER_NODE = 400
#: the certifier's outcomes by value; a dict lookup, because Status(value)
#: costs about 0.3 us, a tenth of the time to load one cache entry
_OUTCOMES = {
    s.value: s for s in (Status.EMPTY_PROVED, Status.NON_SPECIAL_PROVED, Status.INCONCLUSIVE)
}


@dataclass(frozen=True)
class DegenerationParams:
    k: int
    b: int


@dataclass(frozen=True)
class DegenerationSplit:
    """The four subsystems cut out by a (k,b)-degeneration of L.

    LP / LF live on the two pieces; hatLP / hatLF are the kernels of the
    restriction to the double curve.  The virtual-dimension identities
    vP + vF = v + d - k and vhatP + vF = vP + vhatF = v - 1 are checked at
    construction.
    """

    parent: QuasiHomogeneousSystem
    params: DegenerationParams
    LP: QuasiHomogeneousSystem
    LF: QuasiHomogeneousSystem
    hatLP: QuasiHomogeneousSystem
    hatLF: QuasiHomogeneousSystem

    def __post_init__(self):
        v = virtual_dim(self.parent)
        vP, vF = virtual_dim(self.LP), virtual_dim(self.LF)
        vhatP, vhatF = virtual_dim(self.hatLP), virtual_dim(self.hatLF)
        d, k = self.parent.d, self.params.k
        assert vP + vF == v + d - k
        assert vhatP + vF == v - 1
        assert vP + vhatF == v - 1


def split(L: QuasiHomogeneousSystem, params: DegenerationParams) -> DegenerationSplit:
    d, m0, n, m = L.as_tuple()
    k, b = params.k, params.b
    if not (0 < k < d):
        raise ValueError(f"k={k} out of range 0 < k < d={d}")
    if not (0 < b < n):
        raise ValueError(f"b={b} out of range 0 < b < n={n}")
    return DegenerationSplit(
        parent=L,
        params=params,
        LP=_L(d - k, m0, n - b, m),
        LF=_L(d, d - k, b, m),
        hatLP=_L(d - k - 1, m0, n - b, m),
        hatLF=_L(d, d - k + 1, b, m),
    )


def dim_L0(s: DegenerationSplit, lP: int, lF: int, lPhat: int, lFhat: int) -> int:
    """Dimension of the limit system from the four subsystem dimensions.

    With rP = lP - lPhat - 1 and rF = lF - lFhat - 1 (the dimensions of the
    restrictions to the double curve), the limit is lPhat + lFhat + 1 when
    the two restricted series are non-transversal-free (rP + rF <= d-k-1)
    and lP + lF - (d-k) otherwise; the formulas agree on the boundary."""
    d, k = s.parent.d, s.params.k
    rP = lP - lPhat - 1
    rF = lF - lFhat - 1
    if rP + rF <= d - k - 1:
        l0 = lPhat + lFhat + 1
        if rP + rF == d - k - 1:
            assert l0 == lP + lF - (d - k)
        return l0
    return lP + lF - (d - k)


@dataclass
class Certificate:
    system: QuasiHomogeneousSystem
    # EMPTY_PROVED | NON_SPECIAL_PROVED | INCONCLUSIVE; a str Enum, so json
    # writes its value
    outcome: Status
    dim: Optional[int]  # proven generic dimension when available
    tree: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**_summary(self), "tree": self.tree}


def _summary(cert: Certificate) -> dict:
    return {
        "system": cert.system.as_tuple(),
        "outcome": cert.outcome,
        "dim": cert.dim,
    }


class Certifier:
    """Memoized recursive certifier.

    budget bounds the number of systems examined across one Certifier's
    lifetime; the memo persists across calls and can be saved to / loaded
    from a JSON cache file."""

    def __init__(self, budget: int = 100_000):
        self.budget = budget
        self.nodes = 0
        self.memo: dict[tuple, Certificate] = {}

    # -- cache persistence --------------------------------------------------

    def load_cache(self, path: str) -> int:
        """Load the memo entries of a cache file; returns how many were new.

        Raises ValueError, naming the file and the key, on an entry whose
        outcome is not a certifier outcome or whose dim contradicts it.
        The entries carry no proof: a consistent entry is trusted."""
        if not os.path.exists(path):
            return 0
        with open(path) as fh:
            data = json.load(fh)
        if data.get("version") != CACHE_VERSION:
            return 0
        loaded = 0
        for key, entry in data.get("entries", {}).items():
            try:
                tup = tuple(map(int, key.split(",")))
                cert = _cached_certificate(_L(*tup), entry)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: untrusted cache entry {key!r}: {exc}") from None
            if tup not in self.memo:
                self.memo[tup] = cert
                loaded += 1
        return loaded

    def save_cache(self, path: str) -> None:
        entries = {
            ",".join(map(str, key)): {"outcome": c.outcome, "dim": c.dim}
            for key, c in self.memo.items()
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump({"version": CACHE_VERSION, "entries": entries}, fh)
        os.replace(tmp, path)

    # -- certification ------------------------------------------------------

    def certify(self, L: QuasiHomogeneousSystem) -> Certificate:
        key = L.canonical_key()
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"node budget {self.budget} exhausted at {L}")
        cert = self._certify_uncached(L)
        self.memo[key] = cert
        return cert

    def _finish(
        self, L: QuasiHomogeneousSystem, dim: int, via: dict
    ) -> Certificate:
        e = expected_dim(L)
        if dim == -1:
            outcome = Status.EMPTY_PROVED
        elif dim == e:
            outcome = Status.NON_SPECIAL_PROVED
        else:
            # A proven dimension above e: the system is special, which the
            # certifier does not certify; the dimension stays usable by
            # callers needing subsystem dimensions.
            outcome = Status.INCONCLUSIVE
        return Certificate(system=L, outcome=outcome, dim=dim, tree=via)

    def _certify_uncached(self, L: QuasiHomogeneousSystem) -> Certificate:
        base = classifier.proved_base_case(L)
        if base is not None:
            return self._finish(L, base.dim, base.certificate)
        e = expected_dim(L)
        attempts = []
        for params in self._candidate_params(L):
            try:
                s = split(L, params)
            except ValueError:
                continue
            dims = []
            ok = True
            for sub in (s.LP, s.LF, s.hatLP, s.hatLF):
                sub_cert = self.certify(sub)
                if sub_cert.dim is None:
                    ok = False
                    break
                dims.append(sub_cert.dim)
            if not ok:
                attempts.append({"k": params.k, "b": params.b, "result": "unknown-sub"})
                continue
            l0 = dim_L0(s, *dims)
            # Semicontinuity: the limit dimension bounds l(L) from above,
            # and l(L) >= e always.
            assert l0 >= e, (L, params, dims, l0)
            attempts.append({"k": params.k, "b": params.b, "l0": l0, "dims": dims})
            if l0 == e:
                return self._finish(
                    L,
                    e,
                    {
                        "split": {"k": params.k, "b": params.b},
                        "l0": l0,
                        "subsystems": [
                            _summary(self.certify(sub))
                            for sub in (s.LP, s.LF, s.hatLP, s.hatLF)
                        ],
                    },
                )
        return Certificate(
            system=L, outcome=Status.INCONCLUSIVE, dim=None, tree={"attempts": attempts}
        )

    def _candidate_params(self, L: QuasiHomogeneousSystem):
        """Paper-guided (k, b) choices first, then a balanced exhaustive
        sweep."""
        d, m0, n, m = L.as_tuple()
        v = virtual_dim(L)
        seen = set()

        def emit(k, b):
            if 0 < k < d and 0 < b < n and (k, b) not in seen:
                seen.add((k, b))
                yield DegenerationParams(k, b)

        prescriptions: list[tuple[int, int]] = []
        if m == 2:
            if v <= -1:
                prescriptions.append((1, d // 2 + 1))
            else:
                prescriptions.append((1, (d + 1) // 2))
        elif m == 3:
            if v <= -1:
                for b in range(d // 2, 2 * d // 5, -1):
                    if d % 4 == 0 and 2 * b == d:
                        continue
                    prescriptions.append((2, b))
            h = (d + 1) // 2
            prescriptions += [(3, h), (3, h + 1)]
        for k, b in prescriptions:
            yield from emit(k, b)
        fallback = sorted(
            ((k, b) for k in range(1, d) for b in range(1, n)),
            key=lambda kb: (kb[0] * abs(2 * kb[1] - d), kb[0], kb[1]),
        )
        for k, b in fallback[:MAX_SPLITS_PER_NODE]:
            yield from emit(k, b)


def _cached_certificate(L: QuasiHomogeneousSystem, entry: dict) -> Certificate:
    """The certificate a cache entry claims for L.

    Raises ValueError when the outcome is not a certifier outcome or the
    dim contradicts it: EmptyProved needs -1, NonSpecialProved needs e,
    Inconclusive needs None or a dim above e."""
    word, dim = entry["outcome"], entry["dim"]
    outcome = _OUTCOMES.get(word)
    if outcome is None:
        raise ValueError(f"{word!r} is not a certifier outcome")
    if dim is None:
        consistent = outcome == Status.INCONCLUSIVE
    elif type(dim) is not int:
        consistent = False
    elif outcome == Status.EMPTY_PROVED:
        consistent = dim == -1
    elif outcome == Status.NON_SPECIAL_PROVED:
        consistent = dim == expected_dim(L)
    else:
        consistent = dim > expected_dim(L)
    if not consistent:
        raise ValueError(f"outcome {word} contradicts dim {dim!r}")
    return Certificate(system=L, outcome=outcome, dim=dim, tree={"cached": True})


def certify(
    L: QuasiHomogeneousSystem,
    budget: int = 100_000,
    cache_path: Optional[str] = None,
) -> Certificate:
    """One-shot certification; see Certifier for the long-lived form."""
    c = Certifier(budget=budget)
    if cache_path:
        c.load_cache(cache_path)
    cert = c.certify(L)
    if cache_path:
        c.save_cache(cache_path)
    return cert
