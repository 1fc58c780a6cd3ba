import hashlib
import heapq
import inspect
import json
import os
import re
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhplane import classifier, degeneration
from qhplane.core import (
    MAX_INPUT,
    L,
    Status,
    canonical_key,
    expected_dim,
    lattice_virtual_dim,
    virtual_dim,
)
from qhplane.degeneration import (
    MAX_SPLITS_PER_NODE,
    BudgetExceeded,
    Certifier,
    DegenerationSplit,
    SoundnessError,
    _ranked_splits,
    certify,
    dim_L0,
    split,
)
from qhplane.classifier import lookup_special_table
from qhplane.cli import main
from qhplane.oracle import measure_dim


def test_split_example():
    s = split(L(6, 0, 5, 3), 2, 3)
    assert s.LP.as_tuple() == (4, 0, 2, 3)
    assert s.LF.as_tuple() == (6, 4, 3, 3)
    assert s.hatLP.as_tuple() == (3, 0, 2, 3)
    assert s.hatLF.as_tuple() == (6, 5, 3, 3)
    # identity check: vP + vF = v + d - k
    assert virtual_dim(s.LP) + virtual_dim(s.LF) == virtual_dim(s.parent) + 4


def test_split_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        split(L(6, 0, 5, 3), 6, 3)
    with pytest.raises(ValueError):
        split(L(6, 0, 5, 3), 2, 5)
    with pytest.raises(ValueError):
        split(L(6, 0, 5, 3), 0, 3)


@settings(max_examples=200)
@given(
    st.integers(2, 30),
    st.integers(0, 30),
    st.integers(2, 15),
    st.integers(1, 6),
    st.data(),
)
def test_lemma_identities_on_all_splits(d, m0, n, m, data):
    k = data.draw(st.integers(1, d - 1))
    b = data.draw(st.integers(1, n - 1))
    s = split(L(d, m0, n, m), k, b)
    v = virtual_dim(s.parent)
    assert virtual_dim(s.LP) + virtual_dim(s.LF) == v + d - k
    assert virtual_dim(s.hatLP) + virtual_dim(s.LF) == v - 1
    assert virtual_dim(s.LP) + virtual_dim(s.hatLF) == v - 1


def test_dim_L0_all_empty():
    s = split(L(10, 0, 11, 3), 3, 5)
    assert dim_L0(s, -1, -1, -1, -1) == -1


def test_dim_L0_boundary_consistency():
    # when rP + rF = d - k - 1 both formulas agree
    s = split(L(6, 0, 6, 2), 1, 3)
    d_k = 5
    lPhat, lFhat = 2, 1
    rP, rF = 2, d_k - 1 - 2
    lP, lF = rP + lPhat + 1, rF + lFhat + 1
    assert dim_L0(s, lP, lF, lPhat, lFhat) == lPhat + lFhat + 1 == lP + lF - d_k


def test_dim_L0_transversal_case():
    # l0 = lP + lF - (d - k) when the restricted series are transversal
    s = split(L(8, 0, 4, 2), 1, 2)
    assert dim_L0(s, 20, 10, 5, 2) == 20 + 10 - 7


def test_certify_examples():
    assert certify(L(5, 0, 6, 2)).outcome == "NonSpecialProved"
    assert certify(L(5, 0, 6, 2)).dim == 2
    c = certify(L(6, 0, 9, 2))
    assert (c.outcome, c.dim) == ("NonSpecialProved", 0)
    c = certify(L(4, 0, 5, 2))
    assert (c.outcome, c.dim) == ("SpecialProved", 0)
    assert certify(L(10, 0, 11, 3)).outcome == "EmptyProved"


def test_certifier_proves_table_systems_special():
    # the special table's members: a base case proves each dim, above e
    cf = Certifier()
    for sys_ in (L(4, 0, 5, 2), L(6, 0, 5, 3), L(6, 2, 4, 3), L(8, 6, 4, 3)):
        match = lookup_special_table(sys_, with_decomposition=False)
        assert match is not None
        cert = cf.certify(sys_)
        assert (cert.outcome, cert.dim) == (Status.SPECIAL_PROVED, match.l)
        assert cert.dim > expected_dim(sys_)


def test_certified_dims_match_oracle():
    cf = Certifier()
    for d in range(1, 9):
        for m in (2, 3):
            for m0 in range(0, d + 1):
                for n in range(3, 9):
                    sys_ = L(d, m0, n, m)
                    c = cf.certify(sys_)
                    if c.outcome == Status.INCONCLUSIVE:
                        continue
                    if c.outcome == Status.SPECIAL_PROVED:
                        assert c.dim > expected_dim(sys_), sys_
                    else:
                        want = -1 if c.outcome == "EmptyProved" else expected_dim(sys_)
                        assert c.dim == want
                    assert measure_dim(sys_).dim == c.dim, sys_


def test_fewer_points_certificates_are_empty():
    # Each fewer-points certificate names the boundary system, the fewest
    # points with v <= -1, proved empty; the oracle and the classifier agree
    # that the system itself is empty.
    cf = Certifier()
    found = 0
    for d in range(11):
        for m0 in range(d + 2):
            for n in range(21):
                for m in (1, 2, 3):
                    sys_ = L(d, m0, n, m)
                    cert = cf.certify(sys_)
                    if "fewer_points" not in cert.tree:
                        continue
                    found += 1
                    nb = cert.tree["fewer_points"]
                    assert virtual_dim(L(d, m0, nb, m)) <= -1 < virtual_dim(L(d, m0, nb - 1, m))
                    [bound] = cert.tree["subsystems"]
                    assert bound == {"system": (d, m0, nb, m), "outcome": "EmptyProved", "dim": -1}
                    assert (cert.outcome, cert.dim) == (Status.EMPTY_PROVED, -1)
                    assert measure_dim(sys_).dim == -1, sys_
                    assert classifier.dimension(sys_).dim == -1, sys_
    assert found == 375


def test_special_boundary_falls_back_to_a_split():
    # L(4,0,5,2), the boundary of L(4,0,6,2), is special (dim 0): the
    # fewer-points rule cannot apply and a split proves L(4,0,6,2) empty.
    assert certify(L(4, 0, 5, 2)).dim == 0
    cert = certify(L(4, 0, 6, 2))
    assert (cert.outcome, cert.dim) == (Status.EMPTY_PROVED, -1)
    assert "split" in cert.tree and "fewer_points" not in cert.tree


def test_deep_empty_system_is_proved_from_its_boundary():
    # 30,402 nodes when proved by its own degenerations, 2,382 from
    # L(120,0,1231,3), the first with v <= -1
    cert = certify(L(120, 0, 1600, 3), budget=3000)
    assert (cert.outcome, cert.dim) == (Status.EMPTY_PROVED, -1)
    assert cert.tree["fewer_points"] == 1231


def test_memoization_and_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    cf = Certifier()
    cf.certify(L(7, 0, 8, 3))
    n_entries = len(cf.memo)
    cf.save_cache(path)
    fresh = Certifier()
    assert fresh.load_cache(path) == n_entries
    assert fresh.certify(L(7, 0, 8, 3)).outcome == cf.certify(L(7, 0, 8, 3)).outcome
    assert fresh.nodes == 0  # answered from cache


def _tampered_cache(tmp_path, key, dim):
    path = tmp_path / "cache.json"
    cf = Certifier()
    cf.certify(L(7, 0, 8, 3))
    cf.save_cache(str(path))
    data = json.loads(path.read_text())
    data["entries"][key] = dim
    path.write_text(json.dumps(data))
    return str(path)


# (key, dim) entries, or (None, the text of a malformed file)
_UNTRUSTED = [
    ("7,0,8,3", -2),  # below e = -1
    ("7,0,8,3", {"outcome": "EmptyProved", "dim": -1}),  # a version-1 entry
    ("7,0,8,3", 1.5),
    ("7,0,8,3", "0"),
    ("6,0,9,2", False),  # e is 0, not False
    ("7,0,8,3", True),
    ("4,0,5,2", -2),  # below e = -1
    ("4,0,5,2", [0]),
    ("4,0,-5,2", -1),  # not a system
    ("07,0,8,3", -1),  # not as written
    (" 7,0,8,3", -1),
    ("7,0,8", -1),
    ("7,0,8,3,0", -1),
    ("1000001,0,8,3", -1),  # above MAX_INPUT
    ("10,0,5,3", -1),  # e is 35
    ("10,0,5,3", 34),
    (None, "[]"),
    (None, '{"version": 2, "entries": [1, 2]}'),
    (None, "not json"),
    ("1,1,1,2", 0),  # not canonical: L(1,1,1,2) keys as "1,2,1,1"
    ("5,0,0,3", 20),  # not canonical: L(5,0,0,3) is L(5,0), "5,0,0,0"
    ("10,3,1,0", 59),  # not canonical: L(10,3,1,0) is L(10,3), "10,3,0,0"
    ("7,0,8,3", 36),  # above 35, the dim of L(7,0)
    ("10,3,0,0", 60),  # above 59, the dim of the non-special L(10,3)
]


@pytest.mark.parametrize(
    "key, entry", _UNTRUSTED, ids=[f"{k}-entry{i}" for i, (k, _) in enumerate(_UNTRUSTED)]
)
def test_load_cache_rejects_tampered_entries(tmp_path, capsys, key, entry):
    # A malformed file is refused at load.  A bad entry loads, and is named
    # by check_cache and `qhplane check`, and by a Certifier that reads it.
    if key is None:
        path = str(tmp_path / "cache.json")
        with open(path, "w") as fh:
            fh.write(entry)
        with pytest.raises(ValueError) as exc:
            Certifier().load_cache(path)
        assert str(exc.value).startswith(f"{path}: ")
    else:
        path = _tampered_cache(tmp_path, key, entry)
        _assert_read_names(path, key)
    with pytest.raises(ValueError) as exc:
        degeneration.check_cache(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    if key is not None:
        assert message.startswith(f"{path}: untrusted cache entry {key!r}: ")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"qhplane: error: {message}\n"


def _assert_read_names(path, key):
    """A Certifier that loaded path raises the path-and-key message when it
    first reads key.  It reads the key of a system by certifying that
    system; no recursion reads any other key, so that one is checked as
    every memo lookup checks a loaded key."""
    loaded = Certifier()
    loaded.load_cache(path)
    try:
        system = L(*map(int, key.split(",")))
    except (TypeError, ValueError):
        system = None
    with pytest.raises(ValueError) as exc:
        if system is not None and degeneration._KEY % canonical_key(*system.as_tuple()) == key:
            loaded.certify(system)
        else:
            loaded._check(key)
    assert str(exc.value).startswith(f"{path}: untrusted cache entry {key!r}: ")


def _reference_accepts(entries):
    """The documented rule for cache entries, written out without
    degeneration: each key is four plain ASCII decimals with no leading
    zero, equal to canonical_key of its integers, each at most MAX_INPUT;
    each dim is None or an int, not a bool, from e to the dim of L(d, m0)."""
    for key, dim in entries.items():
        fields = key.split(",")
        if len(fields) != 4 or not all(re.fullmatch("0|[1-9][0-9]*", f) for f in fields):
            return False
        system = tuple(map(int, fields))
        if canonical_key(*system) != system or max(system) > MAX_INPUT:
            return False
        d, m0, n, m = system
        e = max(-1, lattice_virtual_dim(d, m0, n, m))
        top = max(-1, lattice_virtual_dim(d, m0, 0, 0))
        if dim is not None and (type(dim) is not int or not e <= dim <= top):
            return False
    return True


# rewrites of one key field that int() reads but _KEY never writes
_EDITS = [
    "0{}".format,
    "00{}".format,
    "+{}".format,
    "-{}".format,
    " {}".format,
    "{} ".format,
    "{}\n".format,
    "{}_0".format,
    lambda f: f.translate({ord("0") + i: 0x660 + i for i in range(10)}),  # Arabic-Indic
]


def _edge_dims(key):
    """Null, the ends of the interval from e to the dim of L(d, m0) of the
    system a key names as int() reads it, one past each end, and values
    that are not ints: bools, a float, a str, a list and ints far outside."""
    try:
        d, m0, n, m = map(int, key.split(","))
    except ValueError:
        d = m0 = n = m = 0
    e = max(-1, lattice_virtual_dim(d, m0, n, m))
    top = max(-1, lattice_virtual_dim(d, m0, 0, 0))
    huge = [2**64, -(2**64), 10**400]
    return [None, e, top, e - 1, top + 1, True, False, float(e), str(e), [e]] + huge


@st.composite
def _cache_entries(draw):
    """(key, dim) pairs on both sides of what a cache file may hold.

    The key is a system's, canonical or not, often with one field rewritten
    (leading zeros, a sign, spaces, non-ASCII digits, a 7- or 8-digit
    value) or a field too few or too many.  The dim is one of _edge_dims,
    inside the interval, a float or any int."""
    system = draw(st.tuples(*map(st.integers, (0, 0, 0, 0), (8, 9, 3, 4))))
    if draw(st.booleans()):
        system = canonical_key(*system)
    fields = list(map(str, system))
    i = draw(st.integers(0, 3))
    how = draw(st.sampled_from(["keep", "keep", "keep", "edit", "big", "count"]))
    if how == "edit":
        fields[i] = draw(st.sampled_from(_EDITS))(fields[i])
    elif how == "big":
        big = st.sampled_from([10**6, 10**6 + 1, 9999999, 10**7]) | st.integers(10**6, 10**8)
        fields[i] = str(draw(big))
    elif how == "count":
        fields = fields[:3] if draw(st.booleans()) else fields + ["0"]
    key = ",".join(fields)
    edges = _edge_dims(key)
    inside = st.integers(*sorted(edges[1:3]))
    dim = draw(st.sampled_from(edges) | inside | inside | st.floats() | st.integers())
    return key, dim


def _check_cache_accepts(path, entries):
    """Whether check_cache accepts a cache file at path holding entries."""
    path.write_text(json.dumps({"version": degeneration.CACHE_VERSION, "entries": entries}))
    try:
        degeneration.check_cache(str(path))
    except ValueError:
        return False
    return True


#: check_cache's verdict on each entries object that
#: test_check_cache_accepts_what_the_reference_accepts wrote, by its JSON
#: text: the examples repeat most edge dims, and each file check costs a
#: write, so each distinct file is checked once per run
_CHECKED: dict[str, bool] = {}


@settings(max_examples=1000)
@given(st.lists(_cache_entries(), min_size=1, max_size=3))
def test_check_cache_accepts_what_the_reference_accepts(tmp_path_factory, pairs):
    # one file, rewritten for each case: hypothesis reuses the fixture
    path = tmp_path_factory.getbasetemp() / "entries.json"
    entries = dict(pairs)
    for case in [entries, *({key: dim} for key in entries for dim in _edge_dims(key))]:
        text = json.dumps(case)
        if text not in _CHECKED:
            _CHECKED[text] = _check_cache_accepts(path, case)
        assert _CHECKED[text] == _reference_accepts(case), case


def test_check_cache_on_single_entries(tmp_path):
    path = tmp_path / "entries.json"
    assert _check_cache_accepts(path, {})
    for key, dim in _UNTRUSTED:
        if key is not None:
            assert not _check_cache_accepts(path, {"7,0,8,3": -1, key: dim}), (key, dim)
    accepted = {"4,0,5,2": 0, "10,3,0,0": 59, "7,0,8,3": -1, "6,0,9,2": None, "1000000,0,0,0": None}
    assert _check_cache_accepts(path, accepted) and _reference_accepts(accepted)


@pytest.mark.parametrize(
    "key, dim",
    [
        ("41,0,50,3", 903),  # above 902, the dim of L(41,0)
        ("41,0,50,3", True),
        ("41,0,50,3", 2**64),
        ("041,0,50,3", -1),
        ("40,0,0,3", 860),  # not canonical
        ("1000001,0,0,0", None),
    ],
)
def test_tampered_entry_after_the_full_ladder_is_named(tmp_path, key, dim):
    # perfbench's 62-call ladder leaves 169 entries (2,212 before the k = m
    # splits went first, 1,448 while the subsystems a rule answers were
    # saved too, 384 while m = 3 also tried the (2, b) splits, and 171
    # before one split rule served every m); one bad entry after all of
    # them is still found and named
    path = str(tmp_path / "cache.json")
    _ladder_cache(path, 62)
    with open(path) as fh:
        data = json.load(fh)
    assert len(data["entries"]) == 169 and key not in data["entries"]
    data["entries"][key] = dim
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(ValueError, match="untrusted cache entry") as exc:
        degeneration.check_cache(path)
    assert str(exc.value).startswith(f"{path}: untrusted cache entry {key!r}: ")
    _assert_read_names(path, key)


def test_a_bad_entry_is_named_where_the_recursion_reads_it(tmp_path):
    # L(10,0,12,3) looks up its boundary L(10,0,11,3), which the split (3, 4)
    # proves empty; each lookup checks the loaded entry it reads
    cf = Certifier()
    cert = cf.certify(L(10, 0, 12, 3))
    assert cert.tree["fewer_points"] == 11
    sub = canonical_key(*cf.certify(L(10, 0, 11, 3)).tree["subsystems"][0]["system"])
    for key, system in (("10,0,11,3", L(10, 0, 12, 3)), (degeneration._KEY % sub, L(10, 0, 11, 3))):
        path = _tampered_cache(tmp_path, key, -2)
        loaded = Certifier()
        loaded.load_cache(path)
        with pytest.raises(ValueError) as exc:
            loaded.certify(system)
        assert str(exc.value).startswith(f"{path}: untrusted cache entry {key!r}: ")


def test_ladder_checks_only_the_entries_it_reads(tmp_path, monkeypatch):
    # The 62-call ladder loads 61 files; it checks the 213 entries it reads,
    # and writes the bytes json.dumps gives.  While the subsystems a rule
    # answers were saved too, the files held 54,011 entries in all, of which
    # it checked 1,056, and the last was 25,364 bytes (sha256 7f95c501...);
    # while m = 3 also tried the (2, b) splits, it checked 419 and the last
    # was 6,739 bytes (sha256 9f3d9f93...); before one split rule served
    # every m, it checked 235 and the last was 2,961 bytes
    # (sha256 6faf27f8...).
    checked = []
    check_entry = degeneration._check_entry

    def count(key, dim):
        checked.append(key)
        return check_entry(key, dim)

    monkeypatch.setattr(degeneration, "_check_entry", count)
    path = str(tmp_path / "cache.json")
    _ladder_cache(path, 62)
    assert len(checked) == 213
    with open(path, "rb") as fh:
        text = fh.read()
    assert len(text) == 2932 and text == json.dumps(json.loads(text)).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "d517bc5f08eb6d5bbdeed1b9a765fdc87309e01b3abe28eab866788458de6f07"
    )


@pytest.mark.parametrize(
    "layout",
    [
        lambda data: json.dumps(data, indent=2),
        lambda data: json.dumps({**data, "note": "kept by hand"}),
        lambda data: json.dumps(data, separators=(",", ":")),
        lambda data: json.dumps(data) + "\n",
    ],
    ids=["indented", "extra-key", "compact", "trailing-newline"],
)
def test_a_cache_in_another_layout_is_rewritten_whole(tmp_path, layout):
    canonical = str(tmp_path / "canonical.json")
    path = str(tmp_path / "cache.json")
    certify(L(7, 0, 8, 3), cache_path=canonical)
    with open(canonical) as fh:
        data = json.load(fh)
    with open(path, "w") as fh:
        fh.write(layout(data))
    for target in (L(9, 0, 11, 3), L(12, 0, 13, 3)):
        certify(target, cache_path=canonical)
        certify(target, cache_path=path)
    with open(path) as fh, open(canonical) as gh:
        text = fh.read()
        assert text == gh.read()
    loaded = Certifier()
    loaded.load_cache(path)
    assert list(loaded.memo.items()) == list(json.loads(text)["entries"].items())


def test_a_cache_with_no_entries_is_extended_in_place(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": degeneration.CACHE_VERSION, "entries": {}}))
    certify(L(7, 0, 8, 3), cache_path=str(path))
    cf = Certifier()
    cf.certify(L(7, 0, 8, 3))
    want = {"version": degeneration.CACHE_VERSION, "entries": cf.memo}
    assert path.read_text() == json.dumps(want)


def test_save_cache_removes_its_temporary_file_when_the_replace_fails(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError(28, "No space left on device")

    cf = Certifier()
    cf.certify(L(7, 0, 8, 3))
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="No space left"):
        cf.save_cache(str(tmp_path / "cache.json"))
    assert os.listdir(tmp_path) == []


def test_load_cache_keeps_file_order_and_the_memo(tmp_path):
    path = str(tmp_path / "cache.json")
    _ladder_cache(path, 4)
    with open(path) as fh:
        entries = json.load(fh)["entries"]
    fresh = Certifier()
    assert fresh.load_cache(path) == len(entries)
    assert list(fresh.memo.items()) == list(entries.items())
    first, second = list(entries)[:2]
    grown = Certifier()
    grown.memo = {second: entries[second], "3,0,0,0": 9}
    assert grown.load_cache(path) == len(entries) - 1
    assert list(grown.memo)[:3] == [second, "3,0,0,0", first]
    assert grown.memo == {**entries, "3,0,0,0": 9}


def test_load_cache_accepts_consistent_entries(tmp_path):
    # e(L(4,0,5,2)) = -1; its proved dimension 0 makes it SpecialProved.
    path = _tampered_cache(tmp_path, "4,0,5,2", 0)
    fresh = Certifier()
    fresh.load_cache(path)
    assert fresh.memo["4,0,5,2"] == 0
    assert fresh.certify(L(4, 0, 5, 2)).outcome == Status.SPECIAL_PROVED
    assert fresh.certify(L(7, 0, 8, 3)).outcome == Status.EMPTY_PROVED
    assert fresh.nodes == 0


def test_cache_hit_rederives_its_dim(tmp_path):
    # 5 lies from e = 0 to 27, the dim of L(6,0), so the entry loads; a hit
    # still proves its dim from the base case or the splits
    path = str(tmp_path / "cache.json")
    with open(path, "w") as fh:
        json.dump({"version": degeneration.CACHE_VERSION, "entries": {"6,0,9,2": 5}}, fh)
    cert = certify(L(6, 0, 9, 2), cache_path=path)
    assert (cert.outcome, cert.dim) == (Status.NON_SPECIAL_PROVED, 0)
    assert cert.to_dict() == Certifier().certify(L(6, 0, 9, 2)).to_dict()
    loaded = Certifier()
    loaded.load_cache(path)
    assert loaded.memo["6,0,9,2"] == 5
    assert loaded.certify(L(6, 0, 9, 2), tree=False).dim == 0


def test_budget_exceeded():
    cf = Certifier(budget=3)
    # the fourth node: L(12,0,13,3) first splits (3, 6), whose LP L(9,0,7,3)
    # splits (3, 4); that split's LP L(6,0,3,3) is the third, proved by the
    # split (3, 2) into base cases, and its hatLP L(5,0,3,3) the fourth.
    with pytest.raises(BudgetExceeded, match=r"^node budget 3 exhausted at L\(5,0,3,3\)$"):
        cf.certify(L(12, 0, 13, 3))


def test_certificate_tree_is_jsonable():
    import json

    c = certify(L(6, 0, 9, 2))
    json.dumps(c.to_dict())
    assert c.to_dict()["outcome"] == "NonSpecialProved"


def test_semicontinuity_on_evaluated_splits():
    # l0 computed from certified sub-dimensions bounds e from below
    cf = Certifier()
    sys_ = L(9, 2, 10, 3)
    cert = cf.certify(sys_)
    if cert.outcome != Status.INCONCLUSIVE:
        assert cert.dim >= expected_dim(sys_)


def test_budget_below_one_is_rejected():
    for budget in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            Certifier(budget=budget)
        with pytest.raises(ValueError, match="at least 1"):
            certify(L(12, 0, 13, 3), budget=budget)


def test_cached_certificate_holds_its_system_tuple(tmp_path):
    path = _tampered_cache(tmp_path, "4,0,5,2", 0)
    loaded = Certifier()
    loaded.load_cache(path)
    cert = loaded.certify(L(4, 0, 5, 2))
    assert cert.system == (4, 0, 5, 2)
    assert (cert.outcome, cert.dim) == (Status.SPECIAL_PROVED, 0)
    # a loaded key is an ordinary memo hit: the certificate a fresh run gives
    assert cert.to_dict() == Certifier().certify(L(4, 0, 5, 2)).to_dict()


@pytest.mark.parametrize(
    "system, nodes",
    [
        ((30, 0, 83, 3), 36),
        ((30, 0, 84, 3), 37),
        ((30, 0, 150, 2), 110),
        ((50, 0, 309, 3), 69),
        ((120, 0, 1600, 3), 188),
    ],
    # each id keeps the count pinned while every subsystem a rule answers
    # was a node too, so each case keeps its name; the m = 3 counts were
    # 41, 42, 99 and 508 while m = 3 also tried the (2, b) splits, and
    # 38, 39, 71 and 190 before one split rule served every m
    ids=["system0-246", "system1-247", "system2-272", "system3-506", "system4-1837"],
)
def test_node_counts_are_pinned(system, nodes):
    cf = Certifier()
    cert = cf.certify(L(*system))
    assert cf.nodes == nodes
    # the same system again: no new node, and the same certificate
    assert cf.certify(L(*system)) == cert
    assert cf.nodes == nodes
    # then each of its subsystems, with the same summary: a memo key costs no
    # node, and one that a rule answered costs one, as a target of its own
    subs = cert.tree["subsystems"]
    keys = [degeneration._KEY % canonical_key(*sub["system"]) for sub in subs]
    ruled = [key for key in keys if key not in cf.memo]
    assert all(key in cf._ruled for key in ruled)
    for sub in subs:
        got = cf.certify(L(*sub["system"]))
        assert (got.system, got.outcome, got.dim) == (sub["system"], sub["outcome"], sub["dim"])
    assert cf.nodes == nodes + len(set(ruled))
    # certify takes the tuple as it takes the system, as the recursion does
    by_tuple = Certifier()
    assert by_tuple.certify(system) == cert
    assert by_tuple.nodes == nodes


def test_memo_holds_only_the_systems_the_recursion_proved():
    # Besides the target, no memo key is a base case or a system with
    # v <= -1 whose boundary system is proved empty: a rule answers those,
    # and its answers stay out of the memo, so every other key cost a node.
    cf = Certifier()
    cf.certify(L(30, 0, 82, 3))
    target = "30,0,82,3"
    assert target in cf.memo and len(cf.memo) == cf.nodes
    assert cf._ruled and not cf._ruled.keys() & cf.memo.keys()
    for key in cf.memo.keys() - {target}:
        d, m0, n, m = map(int, key.split(","))
        assert classifier.base_case_dim(d, m0, n, m) is None, key
        bound = degeneration._boundary(d, m0, n, m, lattice_virtual_dim(d, m0, n, m))
        if bound is not None:
            bound_key = degeneration._KEY % canonical_key(*bound)
            assert cf.memo.get(bound_key, cf._ruled.get(bound_key)) != -1, key


# The cache file that `qhplane certify 12 0 13 3 --cache` wrote while every
# subsystem a rule answers was a node too: 38 entries, of which 31 are base
# cases and "5,0,5,3" has the empty boundary system L(5,0,4,3).
_RULED_ENTRIES_CACHE = (
    '{"version": 3, "entries": {"3,0,2,3": 0, "6,3,2,3": 9, "2,0,2,3": -1, '
    '"6,4,2,3": 5, "3,3,0,0": 3, "6,3,3,3": 3, "2,3,0,0": -1, "6,4,3,3": -1, '
    '"6,0,4,3": 3, "9,6,4,3": 9, "5,2,2,3": 5, "1,0,2,3": -1, "5,3,2,3": 2, '
    '"2,0,3,3": -1, "5,3,1,2": 11, "1,0,3,3": -1, "5,3,1,3": 8, "5,2,3,3": -1, '
    '"1,3,0,0": -1, "5,3,3,3": -1, "5,0,4,3": -1, "9,7,4,3": 2, "9,0,8,3": 6, '
    '"12,9,5,3": 15, "5,0,5,3": -1, "8,5,3,3": 11, "4,0,5,3": -1, "8,6,3,3": 5, '
    '"8,5,4,3": 5, "4,0,4,3": -1, "8,6,4,3": 0, "5,0,3,3": 2, "8,5,5,3": -1, '
    '"4,0,3,3": -1, "8,6,5,3": -1, "8,0,8,3": -1, "12,10,5,3": 5, "12,0,13,3": 12}}'
)


def test_a_cache_holding_rule_answered_entries_still_loads(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    path.write_text(_RULED_ENTRIES_CACHE)
    entries = json.loads(_RULED_ENTRIES_CACHE)["entries"]
    systems = [tuple(map(int, key.split(","))) for key in entries]
    base_cases = [t for t in systems if classifier.base_case_dim(*t) is not None]
    assert len(entries) == 38 and len(base_cases) == 31
    # today's memo for the same target holds 5 systems: the target and
    # "5,0,3,3", with the file's dims, and 3 that the file lacks: the
    # target's split is (3, 6), and the file's route went through (3, 5)
    fresh = Certifier()
    fresh.certify(L(12, 0, 13, 3))
    new = fresh.memo.keys() - entries.keys()
    assert len(fresh.memo) == 5 and sorted(new) == ["6,0,3,3", "8,0,7,3", "9,0,7,3"]
    assert all(entries[key] == dim for key, dim in fresh.memo.items() if key not in new)
    checked = []
    check_entry = degeneration._check_entry
    monkeypatch.setattr(
        degeneration, "_check_entry", lambda key, dim: (checked.append(key), check_entry(key, dim))
    )
    loaded = Certifier()
    assert loaded.load_cache(str(path)) == 38
    assert not checked
    # every system of the file answers as a fresh run does, from the file
    # and the 3 nodes it lacks, and each entry is checked once, on its first
    # read
    for system in systems:
        assert loaded.certify(system).to_dict() == Certifier().certify(system).to_dict()
    assert loaded.nodes == 3 and loaded.memo.keys() - entries.keys() == new
    assert sorted(checked) == sorted(entries)
    # a tampered entry of a base case is named where the recursion reads it:
    # "9,6,4,3" is the LF of the split that proves L(9,0,7,3), the LP of the
    # target's split
    path.write_text(_RULED_ENTRIES_CACHE.replace('"9,6,4,3": 9', '"9,6,4,3": -2'))
    tampered = Certifier()
    tampered.load_cache(str(path))
    with pytest.raises(ValueError) as exc:
        tampered.certify(L(12, 0, 13, 3))
    assert str(exc.value).startswith(f"{path}: untrusted cache entry '9,6,4,3': ")


@pytest.mark.parametrize(
    "d, m, n, outcome, dim, nodes",
    [
        (1000, 3, 83583, Status.NON_SPECIAL_PROVED, 2, 1652),
        (1000, 3, 83584, Status.EMPTY_PROVED, -1, 1653),
        (1000, 2, 167166, Status.NON_SPECIAL_PROVED, 2, 1328),
        (1000, 2, 167167, Status.EMPTY_PROVED, -1, 1329),
        (2000, 3, 333833, Status.NON_SPECIAL_PROVED, 2, 3318),
        (2000, 3, 333834, Status.EMPTY_PROVED, -1, 3319),
    ],
    ids=["3-83583", "3-83584", "2-167166", "2-167167", "3-333833", "3-333834"],
)
def test_boundary_systems_certify_within_the_default_budget(d, m, n, outcome, dim, nodes):
    # L(d, 0, floor(d(d+3) / (m(m+1))), m) and the next: their chains stay
    # within Python's recursion limit since a subsystem emptied by its
    # boundary system no longer takes a level of its own, and each level
    # takes one frame.  The m = 3 systems at d = 1000 took 28,546 and 28,764
    # nodes, and those at d = 2000 exhausted the default budget, while m = 3
    # also tried the (2, b) splits; before one split rule served every m,
    # the m = 3 counts were 1,655 and 1,655 at d = 1000 and 3,321 and 3,321
    # at d = 2000.
    cf = Certifier()
    cert = cf.certify(L(d, 0, n, m), tree=False)
    assert (cert.outcome, cert.dim) == (outcome, dim)
    assert cf.nodes == nodes < degeneration.DEFAULT_BUDGET


def test_each_level_of_the_recursion_takes_one_frame():
    # the m = 2 chain of L(300,0,15150,2) has about d/2 = 150 levels, so at
    # one frame per level it needs about 155 frames, and 200 above the
    # current depth fail at two frames per level
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    try:
        cert = Certifier().certify(L(300, 0, 15150, 2))
    finally:
        sys.setrecursionlimit(limit)
    assert cert.outcome == Status.NON_SPECIAL_PROVED


def test_treeless_certify_matches_the_full_certificate():
    # tree=False is what the recursion asks of a subsystem: the same outcome,
    # dim, node count and memo as a full certificate, with an empty tree
    plain, full = Certifier(), Certifier()
    for d in range(0, 13):
        for m in (2, 3):
            for m0 in range(0, d + 1):
                for n in range(0, 13):
                    got = plain.certify(L(d, m0, n, m), tree=False)
                    want = full.certify(L(d, m0, n, m))
                    assert got.tree == {}
                    assert (got.system, got.outcome, got.dim) == (
                        want.system, want.outcome, want.dim,
                    )
    assert plain.nodes == full.nodes
    assert plain.memo == full.memo


def test_certificate_names_the_system_asked_for():
    # L(1,1,1,2) and L(1,2,1,1) share the canonical key "1,2,1,1".
    cf = Certifier()
    first = cf.certify(L(1, 1, 1, 2))
    second = cf.certify(L(1, 2, 1, 1))
    assert first.system == (1, 1, 1, 2) and second.system == (1, 2, 1, 1)
    assert (second.outcome, second.dim) == (first.outcome, first.dim)
    assert cf.nodes == 1 and list(cf.memo) == ["1,2,1,1"]


def test_one_memo_key_per_system():
    # L(10,0,1,3) is L(10,3): a single extra point of multiplicity 3 and a
    # zero-multiplicity p0 are the one fat point of L(10,3).
    cf = Certifier()
    first = cf.certify(L(10, 0, 1, 3))
    second = cf.certify(L(10, 3))
    assert first.system == (10, 0, 1, 3) and second.system == (10, 3, 0, 0)
    assert (second.outcome, second.dim) == (first.outcome, first.dim) == (
        Status.NON_SPECIAL_PROVED, 59,
    )
    assert cf.nodes == 1 and list(cf.memo) == ["10,3,0,0"]


def _ranked_reference(d, n):
    # every pair (k, b) with 0 < k < d and 0 < b < n, the first
    # MAX_SPLITS_PER_NODE by the key: unlike _ranked_splits, no bound on k
    pairs = ((k * abs(2 * b - d), k, b) for k in range(1, d) for b in range(1, n))
    return [(k, b) for _, k, b in heapq.nsmallest(MAX_SPLITS_PER_NODE, pairs)]


def test_lazy_split_ranking_matches_sorted_list():
    # with d // 2 > MAX_SPLITS_PER_NODE, every b of (804, 2) lies farther
    # than that below d/2
    cases = [(d, n) for d in range(1, 41) for n in [*range(1, 41), 200, 1600]]
    for d, n in [*cases, (120, 1600), (800, 2), (804, 2), (1000, 600), (2001, 1200)]:
        got = list(islice(_ranked_splits(d, n), MAX_SPLITS_PER_NODE))
        assert got == _ranked_reference(d, n), (d, n)


def test_candidates_contain_the_list_before_the_k_m_splits(monkeypatch):
    # For m >= 4 the k = m splits only go ahead of the ranked list that was
    # tried before them, so by induction on (d, n) no proof is lost: a
    # proved dim stays proved, an unknown one can only become proved.  The
    # ranked tail is the reference list, which _ranked_splits matches on
    # this box (test_lazy_split_ranking_matches_sorted_list).  For m <= 3 no
    # node reads that list: it tries at most four pairs.
    ranked = {(d, n): _ranked_reference(d, n) for d in range(41) for n in range(41)}
    calls = []

    def ranked_splits(d, n):
        calls.append((d, n))
        return iter(ranked[d, n])

    monkeypatch.setattr(degeneration, "_ranked_splits", ranked_splits)
    for m in range(8):
        for d in range(41):
            for n in range(41):
                calls.clear()
                got = list(degeneration._candidate_splits(d, n, m))
                pairs = set(got)
                assert len(pairs) == len(got)
                assert all(0 < k < d and 0 < b < n for k, b in got), (d, n, m)
                if m >= 4:
                    assert pairs.issuperset(ranked[d, n]), (d, n, m)
                else:
                    assert len(pairs) <= 4 and not calls, (d, n, m)


@pytest.mark.parametrize(
    "d, nodes",
    [(50, 62), (100, 128), (200, 262), (300, 395)],
    # each id keeps the count pinned while every subsystem a rule answers
    # was a node too, so each case keeps its name
    ids=["50-305", "100-633", "200-1305", "300-1973"],
)
def test_m2_boundary_nodes_are_pinned(d, nodes):
    # L(d, 0, floor(d(d+3)/6), 2), the last homogeneous m = 2 system with
    # v >= 0: its chain of k = 2 splits grows linearly in d (3,047 nodes at
    # d = 50 and 23,375 at d = 100 before those splits went first; d = 200
    # and 300 exhausted the default budget; 305, 633, 1,305 and 1,973 nodes
    # while the subsystems a rule answers were nodes too)
    n = d * (d + 3) // 6
    cf = Certifier()
    cert = cf.certify(L(d, 0, n, 2), tree=False)
    assert (cert.outcome, cert.dim) == (Status.NON_SPECIAL_PROVED, lattice_virtual_dim(d, 0, n, 2))
    assert cf.nodes == nodes < degeneration.DEFAULT_BUDGET


# The four subsystems of the (2,3)-split of L(6,0,5,3).
_SUBS = {"LP": (4, 0, 2, 3), "LF": (6, 4, 3, 3), "hatLP": (3, 0, 2, 3), "hatLF": (6, 5, 3, 3)}


@pytest.mark.parametrize(
    "shifts",
    [
        {"LP": 1, "hatLF": -1},  # breaks vP + vF = v + d - k only
        {"hatLP": 1},  # breaks vhatP + vF = v - 1 only
        {"hatLF": 1},  # breaks vP + vhatF = v - 1 only
    ],
)
def test_split_identities_are_checked(monkeypatch, shifts):
    real = degeneration.lattice_virtual_dim
    shift = {_SUBS[name]: by for name, by in shifts.items()}
    monkeypatch.setattr(
        degeneration, "lattice_virtual_dim", lambda *t: real(*t) + shift.get(t, 0)
    )
    with pytest.raises(SoundnessError, match="split identities"):
        split(L(6, 0, 5, 3), 2, 3)


def test_certifier_checks_split_identities(monkeypatch):
    real = degeneration.lattice_virtual_dim
    monkeypatch.setattr(
        degeneration, "lattice_virtual_dim", lambda *t: real(*t) + (t == (5, 0, 6, 2))
    )
    with pytest.raises(SoundnessError, match="split identities"):
        Certifier().certify(L(5, 0, 6, 2))


def _two_branch_l0(dk, lP, lF, lPhat, lFhat):
    # the paper's rule: transversal restricted series give lP + lF - (d-k)
    rP, rF = lP - lPhat - 1, lF - lFhat - 1
    if rP + rF > dk - 1:
        return lP + lF - dk
    return lPhat + lFhat + 1


def test_dim_L0_equals_the_two_branch_rule():
    dims = range(-1, 7)
    for d in range(2, 10):
        s = split(L(d, 0, 2, 1), 1, 1)  # d - k = d - 1
        for lP in dims:
            for lF in dims:
                for lPhat in dims:
                    for lFhat in dims:
                        assert dim_L0(s, lP, lF, lPhat, lFhat) == _two_branch_l0(
                            d - 1, lP, lF, lPhat, lFhat
                        ), (d - 1, lP, lF, lPhat, lFhat)


def test_semicontinuity_is_checked(monkeypatch):
    # A wrong base case: claiming the four subsystems of L(5,0,6,2)'s first
    # split empty gives l0 = -1 < e = 2.
    forged = {(4, 0, 3, 2), (5, 4, 3, 2), (3, 0, 3, 2), (5, 5, 3, 2)}
    real = classifier.base_case_dim

    def base_case(d, m0, n, m, via=None):
        if (d, m0, n, m) in forged:
            return -1
        return real(d, m0, n, m, via)

    monkeypatch.setattr(classifier, "base_case_dim", base_case)
    with pytest.raises(SoundnessError, match=r"semicontinuity fails .* on L\(5,0,6,2\)"):
        Certifier().certify(L(5, 0, 6, 2))


def _ladder_cache(path, steps):
    # the first steps of perfbench's certify ladder, through cache_path=
    for d in range(40, 40 + steps):
        certify(L(d, 0, d * (d + 3) // 2 // 6 + (d % 2 == 0), 3), cache_path=path)


def test_ladder_cache_matches_recorded_contents(tmp_path):
    # The version-1 file recorded before the recursion moved to tuples
    # (sha256 a42b7a19...), with each entry replaced by its dim; then, at
    # version 3, with its 12 keys "d,m,1,0" renamed to their canonical
    # "d,m,0,0" (the version-2 file hashed to eba98855...).  Re-recorded when
    # deep-empty systems began to be proved by fewer points: 1180 entries
    # (sha256 0d1dcca9...) became 763, and each of the 761 keys in both
    # files has the same dim in both.  Re-recorded when the k = m splits
    # began to go first: 763 entries (sha256 fa2cb388...) became 615, and
    # each of the 350 keys in both files has the same dim in both.
    # Re-recorded when the subsystems a rule answers stopped being saved:
    # 615 entries (sha256 21adc098...) became 131, each with the same dim
    # and in the same order as in the 615; the 484 dropped are 280 base
    # cases and 204 systems whose boundary system is empty.  Re-recorded
    # when m = 3 stopped trying the (2, b) splits: 131 entries
    # (sha256 3f31e831...) became 87, and each of the 86 keys in both files
    # has the same dim in both.  Re-recorded when one split rule began to
    # serve every m: 87 entries (sha256 5c25b2b6...) became 85, the 87 less
    # "6,0,3,3" and "6,0,7,3", each with the same dim.
    path = str(tmp_path / "cache.json")
    _ladder_cache(path, 16)
    with open(path) as fh:
        data = json.load(fh)
    assert len(data["entries"]) == 85
    canon = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canon).hexdigest() == (
        "4d937025d390591c7d89c02017cd5c5d3ff5fd164303880f205bc627afe954d5"
    )


def test_cache_is_rewritten_only_when_the_memo_grows(tmp_path):
    path = str(tmp_path / "cache.json")
    cert = certify(L(9, 0, 11, 3), cache_path=path)
    before = os.stat(path)
    # the same system, then one of its subsystems: both answered from the cache
    certify(L(9, 0, 11, 3), cache_path=path)
    certify(L(*cert.tree["subsystems"][0]["system"]), cache_path=path)
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    certify(L(12, 0, 13, 3), cache_path=path)
    assert os.stat(path).st_ino != before.st_ino  # replaced by a new file


# Files of older versions, each with an untrusted entry: the earlier format
# (outcome word and dim) claiming the non-empty L(10,0,5,3) (e = 35) empty,
# and the earlier keys, one of which ("10,3,1,0") is not canonical.
_OLD_CACHES = {
    1: {"10,0,5,3": {"outcome": "EmptyProved", "dim": -1}},
    2: {"10,0,5,3": -1, "10,3,1,0": 59},
}


def test_version_1_cache_is_ignored_and_replaced(tmp_path):
    path = tmp_path / "cache.json"
    for version, old in _OLD_CACHES.items():
        path.write_text(json.dumps({"version": version, "entries": old}))
        cf = Certifier()
        assert cf.load_cache(str(path)) == 0
        cert = cf.certify(L(10, 0, 5, 3))
        assert (cert.outcome, cert.dim) == (Status.NON_SPECIAL_PROVED, 35)
        assert cf.nodes > 0
        cf.save_cache(str(path))
        data = json.loads(path.read_text())
        assert data["version"] == degeneration.CACHE_VERSION == 3
        assert data["entries"]["10,0,5,3"] == 35
        assert len(data["entries"]) == len(cf.memo)


#: the one m <= 3 system with d, n <= 60 whose dim no split proves; with its
#: 1 + 7 points it waits for a Cremona base case (quadratic transformations
#: on at most nine points)
_UNPROVED_M_LE_3 = {(8, 2, 7, 3)}


def test_certifier_proves_the_classifier_dims_for_m_2_and_3():
    # Every m = 2, 3 system with d, n <= 40 and m0 <= d (70,602 of them)
    # through one Certifier: the recursion proves a dim, and it is the one
    # classifier.dimension answers by the m <= 3 theorem, so the theorem's
    # answers agree with an independent proof path.
    cf = Certifier(budget=10**7)
    cells = [
        (d, m0, n, m) for d in range(41) for m0 in range(d + 1) for n in range(41) for m in (2, 3)
    ]
    assert len(cells) == 70602
    unproved = set()
    for cell in cells:
        cert = cf.certify(cell, tree=False)
        if cert.dim is None:
            unproved.add(cell)
            continue
        assert cert.dim == classifier.dimension(L(*cell)).dim, cell
    assert unproved == _UNPROVED_M_LE_3
