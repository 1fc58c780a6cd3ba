"""(k,b)-degenerations and the recursive non-speciality certifier.

Degenerating the plane to a union P cup F splits L(d, m0, n, m) into a
system on each piece; the limit dimension l0 is computable from the four
subsystem dimensions and bounds the generic dimension from above by
semicontinuity.  Whenever l0 equals the expected dimension, the system is
proved non-special (empty if v <= -1).  The certifier recurses on the
subsystems, with the classifier's proved base cases (few points, the
closed forms of the large-m0 theory, two sporadic special systems) as leaves,
and memoizes proved dims by canonical key.  Outcomes use core.Status: a
proved dim above e is SpecialProved, an unknown one Inconclusive.

Adding a general point only cuts a system down, so L(d, m0, n, m) lies in
L(d, m0, nb, m) for nb <= n.  Before trying splits, a system with v <= -1
looks up its boundary system, the one with the fewest points nb whose
v <= -1; when nb < n and that system is proved empty, so is L, and the
certificate is {"fewer_points": nb, "subsystems": [its summary]}.  A
special or unknown boundary falls through to the splits.  The recursion
ends because each step lowers (d, n) lexicographically: LP and hatLP have
a lower d, LF and hatLF keep d with b < n points, and the fewer-points rule
keeps d with nb < n points.

Every node tries the paper's k = m splits first (see _candidate_splits):
their F-side subsystems are closed forms of the large-m0 theory, so the
recursion goes on down the P side only.  For m <= 3 they, and one k = 2
split for m = 3, are all a node tries; for m >= 4 a ranked list of pairs
follows them.  The boundary systems L(d, 0, floor(d(d+3)/(m(m+1))), m)
take 395 nodes at d = 300 for m = 2, 1,652 at d = 1000 for m = 3 and
8,775 at d = 200 for m = 4.

The recursion runs on plain (d, m0, n, m) tuples, and spends a node only
on a system it must prove by a split or by fewer points.  A subsystem's
dim (a split's four, and the boundary system's) is read in a fixed order:
the memo; the dims a rule answered; classifier.base_case_dim; and, for a
subsystem with v <= -1 and nb < n, its boundary system, read the same way,
which empties it when proved empty.  Only when all of them fail does it go
through `Certifier.certify`, which makes it a node: one memo entry and one
count against the budget.  A rule's answer costs O(1) to derive again, so
it is kept in a per-Certifier dict that is never saved.  Below the top
nothing builds a system object, a DimensionResult or a base-case
certificate.  Each level takes one Python frame, certify, so a chain deeper
than Python's recursion limit raises RecursionError.  Its soundness checks
(the split identities and semicontinuity) raise SoundnessError, so they
also run under `python -O`.

The memo can persist in a JSON cache file (`certify --cache`), which holds
the nodes and none of the dims a rule answered.  A load parses the file and
adds its entries to the memo unchecked; each is checked when the recursion
first reads it, so a run pays for the entries it reads, not for the whole
file, and check_cache (`qhplane check`) gives every entry the same check.
The module needs no numpy: only the oracle builds a matrix.
A save of a memo loaded from a file laid out as save_cache writes it
encodes only the entries added since and splices them into the loaded
text, which gives the same bytes as encoding the whole memo.
"""

from __future__ import annotations

import heapq
import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice, repeat, starmap
from typing import Iterator, Optional

from . import classifier
from .core import (
    MAX_INPUT,
    QuasiHomogeneousSystem,
    SoundnessError,
    Status,
    canonical_key,
    lattice_virtual_dim,
)
from .core import L as _L


class BudgetExceeded(RuntimeError):
    """Raised when the certifier's node budget is exhausted."""


CACHE_VERSION = 3
#: nodes one Certifier may examine unless told otherwise
DEFAULT_BUDGET = 100_000
#: ranked (k, b) splits an m >= 4 node tries after the k = m ones
MAX_SPLITS_PER_NODE = 400
#: memo and cache-file keys: core.canonical_key as four plain decimal integers
_KEY = "%d,%d,%d,%d"
#: what a memo lookup returns on a miss; a stored None (unknown dim) is a hit
_MISS = object()
#: how json.dumps of a cache file's object begins; its entries follow
_HEAD = '{"version": %d, "entries": {' % CACHE_VERSION


@dataclass(frozen=True)
class DegenerationSplit:
    """The four subsystems cut out by a (k,b)-degeneration of L.

    LP / LF live on the two pieces; hatLP / hatLF are the kernels of the
    restriction to the double curve.  `split` checks the virtual-dimension
    identities vP + vF = v + d - k and vhatP + vF = vP + vhatF = v - 1.
    """

    parent: QuasiHomogeneousSystem
    k: int
    b: int
    LP: QuasiHomogeneousSystem
    LF: QuasiHomogeneousSystem
    hatLP: QuasiHomogeneousSystem
    hatLF: QuasiHomogeneousSystem


def _split_tuples(d: int, m0: int, n: int, m: int, k: int, b: int, v: int) -> tuple[tuple, tuple]:
    """(LP, LF, hatLP, hatLF) of the (k,b)-split of L(d, m0, n, m), whose
    virtual dimension is v, as tuples, and their four virtual dimensions.

    Needs 0 < k < d and 0 < b < n; raises SoundnessError unless the three
    virtual-dimension identities hold."""
    subs = (
        (d - k, m0, n - b, m),
        (d, d - k, b, m),
        (d - k - 1, m0, n - b, m),
        (d, d - k + 1, b, m),
    )
    vs = vP, vF, vhatP, vhatF = tuple(starmap(lattice_virtual_dim, subs))
    if vP + vF != v + d - k or vhatP + vF != v - 1 or vP + vhatF != v - 1:
        raise SoundnessError(
            f"split identities fail for (k,b)=({k},{b}) on L({d},{m0},{n},{m}): "
            f"v={v} vP={vP} vF={vF} vhatP={vhatP} vhatF={vhatF}"
        )
    return subs, vs


def split(L: QuasiHomogeneousSystem, k: int, b: int) -> DegenerationSplit:
    d, m0, n, m = L.as_tuple()
    if not (0 < k < d):
        raise ValueError(f"k={k} out of range 0 < k < d={d}")
    if not (0 < b < n):
        raise ValueError(f"b={b} out of range 0 < b < n={n}")
    v = lattice_virtual_dim(d, m0, n, m)
    LP, LF, hatLP, hatLF = (_L(*t) for t in _split_tuples(d, m0, n, m, k, b, v)[0])
    return DegenerationSplit(L, k, b, LP, LF, hatLP, hatLF)


def _limit_dim(dk: int, lP: int, lF: int, lPhat: int, lFhat: int) -> int:
    """dim_L0 with dk = d - k."""
    return max(lP + lF - dk, lPhat + lFhat + 1)


def _outcome(dim: Optional[int], e: int) -> Status:
    """The certifier's outcome for a proved dim (None when unknown) of a
    system with expected dimension e: a proved dim above e is special."""
    if dim is None:
        return Status.INCONCLUSIVE
    if dim == -1:
        return Status.EMPTY_PROVED
    if dim == e:
        return Status.NON_SPECIAL_PROVED
    return Status.SPECIAL_PROVED


def dim_L0(s: DegenerationSplit, lP: int, lF: int, lPhat: int, lFhat: int) -> int:
    """Dimension of the limit system from the four subsystem dimensions.

    With rP = lP - lPhat - 1 and rF = lF - lFhat - 1 (the dimensions of the
    restrictions to the double curve), the limit is lPhat + lFhat + 1 when
    rP + rF <= d-k-1 and lP + lF - (d-k) otherwise.  That branch test is the
    comparison of the two terms, so l0 is their max (and the two agree on
    the boundary rP + rF = d-k-1)."""
    return _limit_dim(s.parent.d - s.k, lP, lF, lPhat, lFhat)


@dataclass
class Certificate:
    system: tuple[int, int, int, int]  # (d, m0, n, m)
    # EMPTY_PROVED | NON_SPECIAL_PROVED | SPECIAL_PROVED | INCONCLUSIVE; a
    # str Enum, so json writes its value
    outcome: Status
    dim: Optional[int]  # proven generic dimension when available
    tree: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"system": self.system, "outcome": self.outcome, "dim": self.dim, "tree": self.tree}


def _summary(system: tuple, dim: int, v: int) -> dict:
    """A split's summary of one subsystem: its tuple, outcome and proved dim."""
    return {"system": system, "outcome": _outcome(dim, max(-1, v)), "dim": dim}


class Certifier:
    """Memoized recursive certifier.

    A node is a system that certify examines on a memo miss: the target of
    a call, or a subsystem that no rule answers.  budget (at
    least 1) bounds the nodes across one Certifier's lifetime.  The memo is
    a cache file's entries object: it maps the key "d,m0,n,m"
    (core.canonical_key) of each node, or of each system loaded from a
    file, to its proved dim, or to None when that is unknown.  So besides
    the targets it holds only systems proved by a split or by fewer points;
    a base case, or a subsystem emptied by its empty boundary system, is
    kept only in the unsaved dict of dims that a rule answered.  The memo
    persists across calls, only grows, and can be saved to / loaded from a
    JSON cache file."""

    def __init__(self, budget: int = DEFAULT_BUDGET):
        if budget < 1:
            raise ValueError(f"node budget must be at least 1, got {budget}")
        self.budget = budget
        self.nodes = 0
        self.memo: dict[str, Optional[int]] = {}
        #: the dims of systems a rule answered, by key; never saved
        self._ruled: dict[str, int] = {}
        #: loaded keys not yet checked, each with the file it came from
        self._unchecked: dict[str, str] = {}
        #: the text of the cache file that filled the memo, and its entry count
        self._loaded: tuple[Optional[str], int] = (None, 0)

    # -- cache persistence --------------------------------------------------

    def load_cache(self, path: str) -> int:
        """Load the memo entries of a cache file; returns how many were new.

        Each entry maps a system key to its proved dim, or to null when it
        is unknown; a file of another version is ignored.  Raises ValueError,
        naming the file, on a file that is not a JSON object with an object
        of entries.  The entries are not checked here: new ones join the
        memo in file order, and each is checked by _check_entry when the
        recursion first reads it (check_cache checks them all).  A bad one
        then raises ValueError naming the file and its key, so no unchecked
        dim reaches an answer.  The entries carry no proof: a dim from e to
        the dim of L(d, m0) is trusted.

        When the memo was empty and the file is laid out as save_cache
        writes it, its text is kept, so that save_cache need encode only
        the entries added after it."""
        if not os.path.exists(path):
            return 0
        text, data = _read_cache(path)
        if data.get("version") != CACHE_VERSION:
            return 0
        entries = data.get("entries", {})
        memo = self.memo
        if memo:
            entries = {key: dim for key, dim in entries.items() if key not in memo}
        elif (
            list(data) == ["version", "entries"]
            and text.startswith(_HEAD)
            and text.endswith("}}")
        ):
            self._loaded = (text, len(entries))
        memo.update(entries)
        self._unchecked.update(dict.fromkeys(entries, path))
        return len(entries)

    def save_cache(self, path: str) -> None:
        """Write the memo as a cache file, through a temporary file that
        replaces it; the text is json.dumps of {"version", "entries"}.

        When load_cache kept the text of the file that filled the memo, only
        the entries added since are encoded, and spliced in before its
        closing braces.  A temporary file left by a failed write or replace
        is removed."""
        memo = self.memo
        text, base = self._loaded
        if text is not None:
            # json.dumps runs the C encoder; json.dump to a file does not
            added = json.dumps(dict(islice(memo.items(), base, None)))[1:-1]
            text = text[:-2] + (", " if base and added else "") + added + "}}"
        else:
            text = json.dumps({"version": CACHE_VERSION, "entries": memo})
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def _check(self, key: str) -> None:
        """Check a loaded memo entry on its first read (see load_cache)."""
        _check_cached(self._unchecked[key], key, self.memo[key])
        del self._unchecked[key]

    # -- certification ------------------------------------------------------

    def certify(self, L: QuasiHomogeneousSystem | tuple, *, tree: bool = True) -> Certificate:
        """A new certificate naming L, a system or the tuple (d, m0, n, m)
        of one, as the recursion passes its subsystems; a tuple is not
        checked, and the certificate names it as given.  L is proved by a
        base case, an empty boundary system, or the first split whose limit
        dim is e.  Only a memo miss counts a node, even when a rule answers
        L: on a hit, examined before or loaded from a file, the tree is
        rebuilt from the dims of L's subsystems, read as the recursion reads
        them.  The tree is the base case's certificate, the boundary's
        summary, the proving split with its subsystem summaries, or the
        splits tried; with tree=False the outcome and dim are the same, but
        no tree is built: the certificate's tree is {}.

        The boundary system and each split's subsystems are read through the
        same lookup: _known, then, for a subsystem with v <= -1, its empty
        boundary system, and only when that fails too, certify, which
        counts the node, with no tree.  The boundary lookup is written out
        at both places rather than in a helper that calls certify, so each
        level of the recursion costs one Python frame."""
        system = L if type(L) is tuple else L.as_tuple()
        key = _KEY % canonical_key(*system)
        miss = key not in self.memo
        if miss:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded(f"node budget {self.budget} exhausted at {_L(*system)}")
        elif self._unchecked and key in self._unchecked:
            self._check(key)
        known = self._known
        d, m0, n, m = system
        v = lattice_virtual_dim(d, m0, n, m)
        e = max(-1, v)
        via = {} if tree else None
        dim = classifier.base_case_dim(d, m0, n, m, via)
        bound = _boundary(d, m0, n, m, v) if dim is None else None
        if bound is not None:
            # Fewer points: L lies in its boundary system, so that one being
            # empty empties L.
            bound_dim = known(_KEY % canonical_key(*bound), bound)
            if bound_dim is _MISS:
                bound_dim = self.certify(bound, tree=False).dim
            if bound_dim == -1:
                dim = -1
                if tree:
                    summary = _summary(bound, -1, lattice_virtual_dim(*bound))
                    via = {"fewer_points": bound[2], "subsystems": [summary]}
        if dim is None:
            attempts = []
            for k, b in _candidate_splits(d, n, m):
                subs, vs = _split_tuples(d, m0, n, m, k, b, v)
                dims = []
                for sub, sub_v in zip(subs, vs):
                    sub_key = _KEY % canonical_key(*sub)
                    sub_dim = known(sub_key, sub)
                    if sub_dim is _MISS:
                        bound = _boundary(*sub, sub_v)
                        if bound is not None:
                            bound_dim = known(_KEY % canonical_key(*bound), bound)
                            if bound_dim is _MISS:
                                bound_dim = self.certify(bound, tree=False).dim
                            if bound_dim == -1:
                                sub_dim = self._ruled[sub_key] = -1
                        if sub_dim is _MISS:
                            sub_dim = self.certify(sub, tree=False).dim
                    if sub_dim is None:
                        break
                    dims.append(sub_dim)
                if len(dims) < 4:
                    if tree:
                        attempts.append({"k": k, "b": b, "result": "unknown-sub"})
                    continue
                l0 = _limit_dim(d - k, *dims)
                # Semicontinuity: the limit dimension bounds l(L) from above,
                # and l(L) >= e always.
                if l0 < e:
                    raise SoundnessError(
                        f"semicontinuity fails for (k,b)=({k},{b}) on {_L(*system)}: "
                        f"l0={l0} < e={e} from dims {dims}"
                    )
                if l0 == e:
                    dim = e
                    if tree:
                        summaries = list(map(_summary, subs, dims, vs))
                        via = {"split": {"k": k, "b": b}, "l0": l0, "subsystems": summaries}
                    break
                if tree:
                    attempts.append({"k": k, "b": b, "l0": l0, "dims": dims})
            else:
                via = {"attempts": attempts}
        if miss:
            self.memo[key] = dim
        return Certificate(system, _outcome(dim, e), dim, via if tree else {})

    def _known(self, key: str, system: tuple) -> object:
        """The dim of L(*system), whose memo key is key, from the first three
        lookup steps, or _MISS when all of them fail: the memo (a loaded
        entry is checked on its first read), the dims a rule answered, and
        classifier.base_case_dim, whose answer joins those.  It never
        certifies, so it adds no frame to the recursion."""
        dim = self.memo.get(key, _MISS)
        if dim is _MISS:
            dim = self._ruled.get(key, _MISS)
            if dim is _MISS:
                dim = classifier.base_case_dim(*system)
                if dim is None:
                    return _MISS
                self._ruled[key] = dim
        elif self._unchecked and key in self._unchecked:
            self._check(key)
        return dim


def _boundary(d: int, m0: int, n: int, m: int, v: int) -> Optional[tuple]:
    """The boundary system of L(d, m0, n, m), whose virtual dimension is v:
    L(d, m0, nb, m) with nb the fewest points for which v <= -1, when
    v <= -1 and nb < n; else None.  L lies in it (adding a general point
    only cuts a system down)."""
    if v <= -1:
        nb = n - (-1 - v) // (m * (m + 1) // 2)
        if nb < n:
            return (d, m0, nb, m)
    return None


def _candidate_splits(d: int, n: int, m: int) -> Iterator[tuple[int, int]]:
    """The (k, b) splits of L(d, m0, n, m) to try, in order, each once and
    each with 0 < k < d and 0 < b < n; m0 is not needed.

    First the paper's k = m splits: (m, b0), (m, b0 + 1) and (m, b0 - 1)
    with b0 = floor((2d - m + 3)/(m + 1)), each b clamped to n - 1.  Their
    F-side subsystems L(d, d-m, b, m) and L(d, d-m+1, b, m) have
    m0 >= d - m - 1, so they are closed-form base cases, and the recursion
    goes on only down the P side L(d-m, m0, n-b, m), with
    v(LP) = v - m(2d-m+3)/2 + b*m(m+1)/2: b0 keeps it near v, so a
    homogeneous chain has about d/m levels.  The clamp keeps a system with
    few points on that chain too.  For m = 2, b0 is floor((2d+1)/3).

    m = 3 then tries (2, floor((d-1)/2)): L(7, m0 <= 2, 5 or 6, 3) and
    L(10,4,9,3) need it, and without it 22 systems with d, n <= 60 that
    descend from them are left unknown.  Only m >= 4 goes on to the first
    MAX_SPLITS_PER_NODE pairs of the balanced exhaustive ranking; a
    system with m <= 1 is a base case and is never split."""
    b0 = (2 * d - m + 3) // (m + 1)
    pairs = [(m, min(b, n - 1)) for b in (b0, b0 + 1, b0 - 1)]
    if m == 3:
        pairs.append((2, min((d - 1) // 2, n - 1)))
    elif m >= 4:
        pairs = chain(pairs, islice(_ranked_splits(d, n), MAX_SPLITS_PER_NODE))
    seen = set()
    for k, b in pairs:
        if 0 < k < d and 0 < b < n and (k, b) not in seen:
            seen.add((k, b))
            yield k, b


def _ranked_splits(d: int, n: int) -> Iterator[tuple[int, int]]:
    """The pairs (k, b) with 0 < k < d and 0 < b < n, lazily, ranked by the
    key (k * |2b - d|, k, b), as far as the first MAX_SPLITS_PER_NODE.

    Within a row k the key orders b by (|2b - d|, b) whatever k is, so every
    row walks the same b list.  Its first MAX_SPLITS_PER_NODE values lie within
    that many of mid, the b nearest d/2, and the stable sort keeps the lower b
    of a tie; heapq.merge interleaves the rows.  Only the rows k up to
    MAX_SPLITS_PER_NODE are built: a pair (k, b) with a larger k comes after
    the MAX_SPLITS_PER_NODE pairs (k', b) with k' <= MAX_SPLITS_PER_NODE."""
    mid = min(d // 2, n - 1)
    window = range(max(1, mid - MAX_SPLITS_PER_NODE), min(n, mid + MAX_SPLITS_PER_NODE + 1))
    bs = sorted(window, key=lambda b: abs(2 * b - d))[:MAX_SPLITS_PER_NODE]
    gaps = [abs(2 * b - d) for b in bs]
    ks = range(1, min(d, MAX_SPLITS_PER_NODE + 1))
    rows = [zip(map(k.__mul__, gaps), repeat(k), bs) for k in ks]
    for _, k, b in heapq.merge(*rows):
        yield k, b


def _read_cache(path: str) -> tuple[str, dict]:
    """The text of a cache file and the object it holds.  Raises ValueError,
    naming the file, unless that is a JSON object with an object of entries."""
    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON cache file: {exc}") from None
    if not (isinstance(data, dict) and isinstance(data.get("entries", {}), dict)):
        raise ValueError(f"{path}: not a JSON object with an object of entries")
    return text, data


def check_cache(path: str) -> int:
    """Check every entry of a cache file; returns how many it holds.

    Raises ValueError, naming the file, as load_cache does on a malformed
    file, and on a file of another version, which load_cache ignores.  Each
    entry gets the check a loaded entry gets on its first read
    (_check_entry), in file order, so the error names the first bad one by
    its key."""
    data = _read_cache(path)[1]
    version = data.get("version")
    if version != CACHE_VERSION:
        raise ValueError(f"{path}: cache version {version!r} is not {CACHE_VERSION}")
    entries = data.get("entries", {})
    for key, dim in entries.items():
        _check_cached(path, key, dim)
    return len(entries)


def _check_cached(path: str, key: str, dim: object) -> None:
    """_check_entry on an entry of the cache file at path, naming both."""
    try:
        _check_entry(key, dim)
    except ValueError as exc:
        raise ValueError(f"{path}: untrusted cache entry {key!r}: {exc}") from None


def _check_entry(key: str, dim: object) -> None:
    """Check a cache entry key -> dim: the check a loaded entry gets on its
    first read, and the one check_cache gives every entry.

    Raises ValueError when the key is not core.canonical_key of a system as
    four plain decimal integers up to MAX_INPUT (checked by formatting the
    key again from its integers), or when the dim is neither None nor an int
    (not a bool) from the key's e to max(-1, v(d, m0)), the dim of L(d, m0),
    which contains the system (one fat point imposes independent conditions)."""
    try:
        d, m0, n, m = map(int, key.split(","))
    except ValueError:
        raise ValueError("the key is not four integers") from None
    if "-" in key or key != _KEY % canonical_key(d, m0, n, m):
        raise ValueError("the key is not the canonical key of a system")
    if max(d, m0, n, m) > MAX_INPUT:
        raise ValueError(f"the key exceeds the supported cap {MAX_INPUT}")
    e = max(-1, lattice_virtual_dim(d, m0, n, m))
    if dim is None or (type(dim) is int and dim == e):  # most entries: skip the bound
        return
    top = max(-1, lattice_virtual_dim(d, m0, 0, 0))
    if type(dim) is not int or not e <= dim <= top:
        raise ValueError(
            f"dim {dim!r} is not null or an integer from e = {e} to {top}, the dim of L({d},{m0})"
        )


def certify(
    L: QuasiHomogeneousSystem,
    budget: int = DEFAULT_BUDGET,
    cache_path: Optional[str] = None,
) -> Certificate:
    """One-shot certification; see Certifier for the long-lived form.

    With cache_path the cache is loaded first and rewritten only when the
    memo gained an entry; an OSError is raised before any certifying when
    the file's directory is missing or not writable."""
    c = Certifier(budget=budget)
    if cache_path:
        folder = os.path.dirname(cache_path) or "."
        if not os.access(folder, os.W_OK):
            raise OSError(f"{folder} is not a writable directory")
        c.load_cache(cache_path)
    known = len(c.memo)
    cert = c.certify(L)
    if cache_path and len(c.memo) > known:
        c.save_cache(cache_path)
    return cert
