#!/usr/bin/env python3
"""Recompute the three reference tables from scratch and diff them.

Runs the (-1)-class enumeration (m <= 7), the configuration enumeration
(m <= 10) and the special-system table, prints each next to its reference
form, and flags rows the enumeration finds that the reference tables lack.
The published m <= 7 class table omits one m = 7 row, L(56, 48, 17, 7) with
divisor pair (90, 1); acceptance criterion 1 (tests/test_acceptance.py)
proves that row is a (-1)-class and a curve, and this script labels it so.
Exits 1 if it flags any other row, 0 otherwise.

Run from a source checkout as `PYTHONPATH=src python scripts/reproduce_tables.py`.
"""

from __future__ import annotations

import sys

from qhplane import minus_one, tables

#: the published row of the pencil family (e, e-1, 2e, 1), e >= 1, and the
#: e = 1 member the enumeration lists for it
PENCIL_ROW = ("e>=1", "e-1", "2e", "1")
PENCIL_ROW_AT_E1 = ("1", "0", "2", "1")
#: the m = 7 row the published table omits, proved in acceptance criterion 1
PROVED_OMISSION = ("56", "48", "17", "7")


def classes_table() -> int:
    """Print the class table; return the number of unexplained rows."""
    print("== (-1)-classes, m <= 7 ==")
    concrete = [
        c for c in minus_one.enumerate_qh_classes(7) if c.family != "LinePencil" or c.e == 1
    ]
    reference = {
        PENCIL_ROW_AT_E1 if row[:4] == PENCIL_ROW else row[:4]
        for row in tables.QH1LIST_ROWS
    }
    unexplained = 0
    for c in concrete:
        d, m0, n, m = c.system.as_tuple()
        key = (str(d), str(m0), str(n), str(m))
        x, y = c.witness if c.witness else ("-", "-")
        if key in reference:
            tag = ""
        elif key == PROVED_OMISSION:
            tag = "   <-- omitted by the published table (proved in criterion 1)"
        else:
            tag = "   <-- not in the reference table"
            unexplained += 1
        print(f"  {d:3} {m0:3} {n:3} {m:2}  ({x} {y}){tag}")
    return unexplained


def configurations_table() -> None:
    print("== (-1)-configurations, m <= 10 ==")
    for c in minus_one.enumerate_configurations(10):
        if not c.compound:
            continue
        t = c.total
        print(f"  {t.d:3} {t.m0:3} {t.n:3} {t.m:3}  ({c.delta} {c.mu0} {c.mu1} {c.mu2})")


def special_table() -> None:
    print("== (-1)-special systems, m <= 3 ==")
    for row in tables.OBIRREG23_ROWS:
        print("  " + "  ".join(x for x in row if x))


if __name__ == "__main__":
    unexplained = classes_table()
    print()
    configurations_table()
    print()
    special_table()
    if unexplained:
        print(f"\n{unexplained} row(s) not in the reference table", file=sys.stderr)
    sys.exit(1 if unexplained else 0)
