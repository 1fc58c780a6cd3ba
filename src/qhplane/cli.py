"""Command-line interface.

Subcommands: dim, classify, enumerate, oracle, certify, check, verify,
table.  `certify --cache` checks a cache entry when the certifier first
reads it; `check` checks every entry of a cache file.
Exit codes: 0 success, 1 verification mismatch, an exhausted certifier
budget, a certifier recursion deeper than Python's recursion limit or a
reader that closed standard output early, 2 usage error (including a
ValueError from invalid input, such as a budget below 1, more verify
workers than CPUs, an enumerate bound whose classes exceed the input cap,
or a cache file that is malformed, of another version for `check`, or
holds an untrusted entry).  Errors are reported as `qhplane: error: ...`
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import classifier, degeneration, minus_one, tables
from .core import MAX_INPUT, L, invariants

if TYPE_CHECKING:
    from .oracle import OracleConfig

JSON_SCHEMA_VERSION = 1


def _emit_json(payload: dict) -> None:
    payload = {"schema": JSON_SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2, default=str))


def _emit_rows(header: Sequence[str], rows: list[Sequence], fmt: str) -> None:
    if fmt == "json":
        _emit_json({"rows": [dict(zip(header, row)) for row in rows]})
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(x).rjust(w) for x, w in zip(row, widths)))


def _system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("d", type=int)
    p.add_argument("m0", type=int)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)


def _format_flag(p: argparse.ArgumentParser, csv_too: bool = True) -> None:
    p.add_argument("--json", action="store_true")
    if csv_too:
        p.add_argument("--csv", action="store_true")


def _fmt(args) -> str:
    if getattr(args, "json", False):
        return "json"
    if getattr(args, "csv", False):
        return "csv"
    return "plain"


def cmd_dim(args) -> int:
    sys_ = L(args.d, args.m0, args.n, args.m)
    result = classifier.dimension(sys_)
    inv = invariants(sys_)
    if args.json:
        _emit_json(
            {
                "system": sys_.as_tuple(),
                "dim": result.dim,
                "v": inv.v,
                "e": inv.e,
                "status": result.status.value,
                "certificate": result.certificate,
            }
        )
    else:
        print(f"{sys_}: dim={result.dim} v={inv.v} e={inv.e} status={result.status.value}")
    return 0


def cmd_classify(args) -> int:
    sys_ = L(args.d, args.m0, args.n, args.m)
    special, result = classifier.is_special(sys_)
    inv = invariants(sys_)
    decomp = result.certificate.get("decomposition")
    # Only proved answers lack the key, and a decomposition would force
    # dim >= v(residual) > e: a non-special one has none to search for.
    if special and "decomposition" not in result.certificate:
        found = minus_one.find_special_decomposition(sys_)
        decomp = found.to_dict() if found else None
    payload = {
        "system": sys_.as_tuple(),
        "special": special,
        "dim": result.dim,
        "v": inv.v,
        "e": inv.e,
        "self_int": inv.self_int,
        "genus": inv.genus,
        "status": result.status.value,
        "decomposition": decomp,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(
            f"{sys_}: {'SPECIAL' if special else 'non-special'} "
            f"dim={result.dim} e={inv.e} status={result.status.value}"
        )
        if decomp:
            for part in decomp["fixed_parts"]:
                print(f"  fixed part: {part['N']} x {part['curve']}")
            print(f"  residual: L{tuple(decomp['residual'])} with v={decomp['residual_v']}")
    return 0


def cmd_enumerate(args) -> int:
    m, e = args.m_max, args.e_max
    if m * (m + 1) > MAX_INPUT:
        raise ValueError(
            f"--m-max {m} would list the class L({m * (m + 1)},{m * m - 1},{2 * m + 3},{m}),"
            f" whose degree m(m+1) exceeds the supported cap {MAX_INPUT}"
        )
    if 2 * e > MAX_INPUT:
        raise ValueError(
            f"--e-max {e} would list the pencil member L({e},{e - 1},{2 * e},1),"
            f" whose n = 2e exceeds the supported cap {MAX_INPUT}"
        )
    if args.configurations:
        rows = [
            (
                c.total.d, c.total.m0, c.total.n, c.total.m,
                c.delta, c.mu0, c.mu1, c.mu2, c.compound,
            )
            for c in minus_one.enumerate_configurations(args.m_max, e_max=args.e_max)
        ]
        header = ("d", "m0", "n", "m", "delta", "mu0", "mu1", "mu2", "compound")
    else:
        rows = []
        for c in minus_one.enumerate_qh_classes(args.m_max, e_max=args.e_max):
            irr, _ = minus_one.is_irreducible_class(c)
            x, y = c.witness if c.witness else ("-", "-")
            s = c.system
            rows.append((s.d, s.m0, s.n, s.m, x, y, c.family, irr))
        header = ("d", "m0", "n", "m", "x", "y", "family", "irreducible")
    _emit_rows(header, rows, _fmt(args))
    return 0


def _oracle_fields(args) -> dict:
    """The --prime, --trials and --seed given, as oracle.OracleConfig
    fields; the dataclass's defaults fill the rest.  Only the oracle's
    subcommands import the oracle, and with it numpy."""
    fields = ("prime", "trials", "seed")
    return {f: getattr(args, f) for f in fields if getattr(args, f, None) is not None}


def cmd_oracle(args) -> int:
    from . import oracle

    cfg = oracle.OracleConfig(**_oracle_fields(args))
    sys_ = L(args.d, args.m0, args.n, args.m)
    dim, e, special = oracle.measure_speciality(sys_, cfg)
    if args.json:
        _emit_json(
            {
                "system": sys_.as_tuple(),
                "dim": dim,
                "e": e,
                "special": special,
                "oracle": cfg.as_dict(),
            }
        )
    else:
        print(f"{sys_}: measured dim={dim} e={e} special={special}")
    return 0


def cmd_certify(args) -> int:
    sys_ = L(args.d, args.m0, args.n, args.m)
    try:
        cert = degeneration.certify(sys_, budget=args.budget, cache_path=args.cache)
    except degeneration.BudgetExceeded as exc:
        print(f"qhplane: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # each level of the recursion takes one frame
        limit = sys.getrecursionlimit()
        print(f"qhplane: error: recursion limit {limit} reached certifying {sys_}", file=sys.stderr)
        return 1
    except OSError as exc:  # only the cache file is read or written
        raise ValueError(f"{args.cache}: {exc.strerror or exc}") from None
    if args.json:
        _emit_json(cert.to_dict())
    else:
        print(f"{sys_}: {cert.outcome.value}" + (f" dim={cert.dim}" if cert.dim is not None else ""))
    return 0


def cmd_check(args) -> int:
    try:
        entries = degeneration.check_cache(args.cache)
    except OSError as exc:
        raise ValueError(f"{args.cache}: {exc.strerror or exc}") from None
    if args.json:
        _emit_json({"cache": args.cache, "entries": entries})
    else:
        print(f"{args.cache}: {entries} entries checked")
    return 0


def _verify_cell(cfg: OracleConfig, cell: tuple[int, int, int, int]) -> Optional[dict]:
    from . import oracle

    sys_ = L(*cell)
    theory = classifier.dimension(sys_)
    measured = oracle.measure_dim(sys_, cfg).dim
    if theory.dim != measured:
        return {
            "system": sys_.as_tuple(),
            "theory": theory.dim,
            "status": theory.status.value,
            "oracle": measured,
        }
    return None


def cmd_verify(args) -> int:
    for flag, value, least in (
        ("--d-max", args.d_max, 0), ("--n-max", args.n_max, 0),
        ("--m-max", args.m_max, 1), ("--workers", args.workers, 1),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        raise ValueError(f"--workers must be at most the CPU count {cpus}, got {args.workers}")
    cells = [
        (d, m0, n, m)
        for d in range(0, args.d_max + 1)
        for m in range(1, args.m_max + 1)
        for m0 in range(0, d + 1)
        for n in range(0, args.n_max + 1)
    ]
    from . import oracle

    # one config per run: building one checks that its prime is prime
    cfg = oracle.OracleConfig(**_oracle_fields(args))
    check = functools.partial(_verify_cell, cfg)
    if args.workers > 1:
        import multiprocessing

        with multiprocessing.Pool(args.workers) as pool:
            results = pool.map(check, cells, chunksize=64)
    else:
        results = map(check, cells)
    mismatches = [r for r in results if r is not None]
    if args.json:
        _emit_json({"cells": len(cells), "mismatches": mismatches})
    else:
        print(f"checked {len(cells)} systems, {len(mismatches)} mismatches")
        for mm in mismatches[:50]:
            print(f"  MISMATCH {mm}")
    return 1 if mismatches else 0


def cmd_table(args) -> int:
    header, rows = tables.TABLES[args.name]
    _emit_rows(header, rows, _fmt(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhplane",
        description="Dimensions and speciality of quasi-homogeneous linear systems of plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="generic dimension with proof status")
    _system_args(p)
    _format_flag(p, csv_too=False)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("classify", help="speciality report with decomposition")
    _system_args(p)
    _format_flag(p, csv_too=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="(-1)-classes or configurations")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--configurations", action="store_true")
    p.add_argument("--e-max", type=int, default=minus_one.DEFAULT_E_MAX)
    _format_flag(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="measure the dimension over a prime field")
    _system_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--prime", type=int)
    _format_flag(p, csv_too=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("certify", help="degeneration proof of emptiness/non-speciality")
    _system_args(p)
    p.add_argument("--budget", type=int, default=degeneration.DEFAULT_BUDGET)
    p.add_argument("--cache", type=str, default=None, help="memo cache file")
    _format_flag(p, csv_too=False)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", help="check every entry of a certify cache file")
    p.add_argument("cache", type=str, help="memo cache file")
    _format_flag(p, csv_too=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="theory-vs-oracle sweep")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    _format_flag(p, csv_too=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="emit a reference table")
    p.add_argument("name", choices=sorted(tables.TABLES))
    _format_flag(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        print(f"qhplane: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away: send the rest of the output to devnull, so
        # that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
