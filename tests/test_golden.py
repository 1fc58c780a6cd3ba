"""Golden digests of the dimension pipeline's answers.

Each box below is recomputed, serialised with compact `json.dumps` and
hashed with sha256; the digests were recorded before the pipeline was
consolidated, so any change to a dimension, a status, a certifier outcome
or an enumeration row shows up here.  The certifier tree digest was
recorded before the certifier's recursion was rewritten on tuples: it also
pins every split chosen, every subsystem summary and every base-case
certificate.  It was re-recorded when every certificate and summary began
naming the system asked for rather than the first one memoized under its
canonical key; with each "system" replaced by core.canonical_key, the rows
hash to 70545cb0... before and after.  It was re-recorded again when a
deeply empty system began to be proved empty from its boundary system (the
fewest points with v <= -1): the 587 rows that changed are EmptyProved
with dim -1 before and after and now carry the fewer-points certificate,
and the other 15,289 rows are byte-identical (f71d6a1e... before).
It was re-recorded once more when the k = m splits began to go first for
m = 2 and 3 (58da8cf0... before): the 2,758 rows that changed keep their
system, outcome and dim and differ only in the split that proves them (or,
for one Inconclusive row, in the splits its attempts list), and the
"certifier d<=20 m<=3" digest of outcomes and dims did not move.
The decomposition digest was
recorded before the (-1)-curve candidates became configurations: it pins
every fixed part's label, total, multiplicity and curve count, in order,
and the classifier's certificate.
The tree and decomposition digests were re-recorded together when the
special table left the answer path, its members now answered by the
large-m0 closed forms and two sporadic base cases, and a base-case answer
stopped carrying a decomposition: only base-case certificates moved.  With
the tree of every tree row whose tree has a "table" or "base" key set to
{}, the tree rows hash to 08453353... before and after (162 of 15,876 rows
changed); with the last column of every decomposition row whose
certificate has either key set to null, the decomposition rows hash to
a7720ee8... before and after (416 of 88,536 rows changed).
The tree digest was re-recorded when m = 3 stopped trying the (2, b)
splits for v <= -1 and kept only the k = 3 splits ahead of the ranked list
(211dc621... before): the 78 rows that changed are m = 3 rows, proved by a
split before and after with the same system, outcome and dim, and differ
only in the split that proves them and its subsystems.
The three certifier digests were re-recorded together when a proved dim
above e began to read SpecialProved rather than Inconclusive, and one
split rule, the k = m splits with b clamped below n, began to serve every
m (31669f44..., 15f1d230... and a601c2fc... before).  With SpecialProved
read back as Inconclusive, the "certifier d<=20 m<=3" and box-A rows hash
to the old digests: 270 and 268 rows changed, only in that word.  Of the
15,876 tree rows 2,770 changed: 345 only in that word, in the row or in a
subsystem summary; 2,424 are proved by a split before and after, with the
same system, outcome and dim, and differ only in the split and its
subsystems; and the one Inconclusive row, L(8,2,7,3), lists other splits.
The irreducibility digest was recorded before the Cremona reduction lost
its step cap and its state strings: it pins every class's verdict, pivot
sequence, failure reasons and blocking class.
The box-A certifier digest was recorded before subsystems answered by a
base case or an empty boundary system stopped being memo nodes: it pins the
(outcome, dim) of every cell of m = 4..7, d and n <= 16, even m0 <= d,
through one shared Certifier, whose split search re-reads the same
subsystems many times.
On a mismatch the message names the box and prints the histogram of one
column (the status, where there is one).
"""

import hashlib
import json
from collections import Counter

import pytest

from qhplane import classifier, minus_one
from qhplane.core import L
from qhplane.degeneration import Certifier


def _box(m_values, d_max=20):
    for d in range(d_max + 1):
        for m0 in range(d + 2):
            for n in range(21):
                for m in m_values:
                    yield d, m0, n, m


def classifier_rows():
    rows = []
    for cell in _box(range(1, 6)):
        r = classifier.dimension(L(*cell))
        rows.append([*cell, r.dim, r.status.value])
    return rows


def certifier_rows():
    cf = Certifier()
    rows = []
    for cell in _box(range(1, 4)):
        cert = cf.certify(L(*cell))
        rows.append([*cell, cert.outcome, cert.dim])
    return rows


def certifier_box_a_rows():
    cf = Certifier()
    rows = []
    for d in range(17):
        for m0 in range(0, d + 1, 2):
            for n in range(17):
                for m in range(4, 8):
                    cert = cf.certify(L(d, m0, n, m))
                    rows.append([d, m0, n, m, cert.outcome, cert.dim])
    return rows


def certifier_tree_rows():
    cf = Certifier()
    return [cf.certify(L(*cell)).to_dict() for cell in _box(range(1, 4))]


def decomposition_rows():
    rows = []
    for cell in _box(range(1, 9), d_max=30):
        system = L(*cell)
        found = minus_one.find_special_decomposition(system)
        rows.append([
            *cell,
            found.to_dict() if found else None,
            classifier.dimension(system).certificate,
        ])
    return rows


def configuration_rows():
    rows = []
    for k in range(1, 18):
        per_k = []
        for c in minus_one.enumerate_configurations(k):
            t = c.total
            per_k.append([t.d, t.m0, t.n, t.m, c.delta, c.mu0, c.mu1, c.mu2, c.compound])
        rows.append(per_k)
    return rows


def class_rows():
    return [
        [*c.system.as_tuple(), *(c.witness or (None, None)), c.family]
        for c in minus_one.enumerate_qh_classes(150)
    ]


def irreducibility_rows():
    rows = []
    for c in minus_one.enumerate_qh_classes(150):
        ok, cert = minus_one.is_irreducible_class(c)
        trace = cert["trace"]
        rows.append([
            *c.system.as_tuple(),
            ok,
            [list(step["pivot"]) for step in trace if "pivot" in step],
            [step["fail"] for step in trace if "fail" in step],
            cert.get("blocking_class"),
        ])
    return rows


def hyperbola_rows():
    return [
        [m, [list(p) for p in minus_one.hyperbola_solutions(m)]]
        for m in range(1, 301)
    ]


def _histogram_of(column):
    # A str-Enum status prints as its value on every Python version.
    return lambda rows: Counter(getattr(row[column], "value", row[column]) for row in rows)


def _fixed_parts_histogram(rows):
    return Counter(len(row[4]["fixed_parts"]) if row[4] else 0 for row in rows)


def _flat_histogram(rows):
    return Counter(str(row[-1]) for per_k in rows for row in per_k)


def _solution_count_histogram(rows):
    return Counter(len(pairs) for _, pairs in rows)


# name, rows, digest, histogram of the rows printed on a mismatch
GOLDEN = [
    (
        "classifier d<=20 m<=5",
        classifier_rows,
        "c5bfb0430f1d8266de9a9a01a8974bd74290e303c0960bf57c8758c45779d4ef",
        _histogram_of(5),
    ),
    (
        "certifier d<=20 m<=3",
        certifier_rows,
        "326614667f101a8409cc59fb4d1294d9f3092c7ea44ec55f4b2471aa06fc0918",
        _histogram_of(4),
    ),
    (
        "certifier box A m=4..7 d,n<=16",
        certifier_box_a_rows,
        "d06686ddb03ea548d4ace545bbca8af9b23576fcff94ad9f421a722d8feae322",
        _histogram_of(4),
    ),
    (
        "certifier trees d<=20 m<=3",
        certifier_tree_rows,
        "af2481afd374d684168509df04fc1bf0da487a001dd570539deb1757d2d5e28f",
        _histogram_of("outcome"),
    ),
    (
        "decompositions d<=30 m<=8",
        decomposition_rows,
        "e1e1816875b7fd7eaf691b60a37d6198195a13b928ed76aadfb4fdfe4eec18f9",
        _fixed_parts_histogram,
    ),
    (
        "configurations m_max<=17",
        configuration_rows,
        "a3e76127e768cf2ef1c2626f9980919aeabecabc81883ae8dd723f4ac2537290",
        _flat_histogram,
    ),
    (
        "classes m<=150",
        class_rows,
        "043a343d7445181054825b8cbf0db2f72f9e52d89001c55c8af69919e7c2f911",
        _histogram_of(6),
    ),
    (
        "irreducibility m<=150",
        irreducibility_rows,
        "1462bdff75d7c6e191536d03f68c04e7795d8e4d5c2572e572740fc30a2dd7a1",
        _histogram_of(4),
    ),
    (
        "hyperbola m<=300",
        hyperbola_rows,
        "31429dd2cdc107deedff03de5671c5afcd84e9318039714d63e257f3bd6f68b5",
        _solution_count_histogram,
    ),
]


@pytest.mark.parametrize(
    "name, rows_of, digest, histogram", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_golden_digest(name, rows_of, digest, histogram):
    rows = rows_of()
    got = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert got == digest, (
        f"{name}: digest {got} != {digest}; histogram {dict(histogram(rows))}"
    )
