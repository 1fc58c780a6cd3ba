#!/usr/bin/env python3
"""Record the catalogue workload's reference answers into reference.json.

The reference pins the answers of the commit it was recorded at, so a later
change that alters a row, an irreducibility verdict or a classification
fails the benchmark instead of passing silently.  It keeps the m = 7 class
L(56,48,17,7) that the classical table omits.  Re-record only when a change
of answers is intended, and say so in the change.

Usage (from the repository root):
    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

import workloads as w
from qhplane import classifier, minus_one
from qhplane.core import L

EXTRA_M7_CLASS = (56, 48, 17, 7)


def table_instances(d_max: int = 12, n_max: int = 12) -> list[tuple]:
    """The m <= 3 special-table instances with d, n <= 12."""
    return [
        (d, m0, n, m)
        for d in range(d_max + 1)
        for m in (2, 3)
        for m0 in range(d + 1)
        for n in range(1, n_max + 1)
        if classifier.lookup_special_table(L(d, m0, n, m), with_decomposition=False)
    ]


def record() -> dict:
    classes = [w.class_row(c) for c in minus_one.enumerate_qh_classes(w.CLASSES_M_MAX)]
    if not any(tuple(row[:4]) == EXTRA_M7_CLASS for row in classes):
        raise SystemExit(f"L{EXTRA_M7_CLASS} missing from the class list")
    box_exceptions = {}
    for _, _, cells in w.box_cells():
        for cell in cells:
            row = w.classify_row(cell)
            if row != w.box_default(cell):
                box_exceptions[",".join(map(str, cell))] = row
    return {
        "classes_m_max": w.CLASSES_M_MAX,
        "configurations_m_max": w.CONFIGURATIONS_M_MAX,
        "box": {"d": w.BOX_D, "m": w.BOX_M, "n": w.BOX_N},
        "classes": classes,
        "configurations": w.configuration_rows(w.CONFIGURATIONS_M_MAX),
        "table_instances": [
            list(cell) + w.classify_row(cell) for cell in table_instances()
        ],
        "box_exceptions": box_exceptions,
    }


if __name__ == "__main__":
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump(record(), fh, separators=(",", ":"))
        fh.write("\n")
