"""Command-line front end: expand series, verify identities, time the suite.

Orders are bounded: `--order` for `expand` and `verify`, and every
`bench --sizes` entry, may not exceed MAX_ORDER = 100000; a larger one is a
usage error, reported before anything is built.

Exit codes: 0 success, 1 when any identity check FAILED, 2 on usage errors,
3 when an identity check raised instead of reporting (`verify` still prints
the completed reports; one `error:` line per raised check goes to stderr).
`bench` prints a row only for a size whose checks all passed, and one
`error:` line per raised or FAILED check of the other sizes.
JSON output carries coefficients as decimal strings so arbitrarily large
integers survive a round trip through 64-bit JSON parsers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from enum import Enum
from typing import Optional, Sequence

from .constructors import SeriesId, named_series
from .harness import (
    IdentityId,
    IdentityReport,
    IdentityStatus,
    SuiteError,
    check_identity,
    run_suite,
)
from .series import format_polynomial

__all__ = ["OutputFormat", "main"]

DEFAULT_ORDER = 200
MAX_ORDER = 100_000  # the suite takes 0.69-0.81 s at 10000, 2.06-2.15 s at 20000 and 27-30 s here (CPython 3.11, 2-vCPU Xeon); its cost grows about as order^1.5-1.6


class OutputFormat(Enum):
    TABLE = "table"
    JSON = "json"
    CSV = "csv"


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _raised(ident: IdentityId, exc: Exception) -> str:
    return f"{ident.value}: {type(exc).__name__}: {exc}"


def _print_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# -- expand ---------------------------------------------------------------------


def _cmd_expand(args: argparse.Namespace) -> int:
    if not 1 <= args.order <= MAX_ORDER:
        return _fail_usage(f"--order must lie in [1, {MAX_ORDER}], got {args.order}")
    sid = SeriesId(args.series)
    series = named_series(sid, args.order)
    fmt = OutputFormat(args.format)
    if fmt is OutputFormat.TABLE:
        print(format_polynomial(series))
    elif fmt is OutputFormat.JSON:
        # the bytes of json.dumps(payload, indent=2) for the payload
        # {"series": sid, "order": order, "coeffs": [str(c), ...]}, written
        # directly: an indent sends json to its pure-Python encoder, and no
        # name or decimal string needs escaping
        coeffs = '",\n    "'.join(map(str, series.coefficients))
        print(f'{{\n  "series": "{sid.value}",\n  "order": {args.order},\n  "coeffs": [\n    "{coeffs}"\n  ]\n}}')
    else:
        _print_csv(
            ("n", "coefficient"),
            [(n, c) for n, c in enumerate(series.coefficients)],
        )
    return 0


# -- verify ---------------------------------------------------------------------

_VERIFY_CSV_HEADER = (
    "identity",
    "order",
    "status",
    "mismatch_index",
    "mismatch_lhs",
    "mismatch_rhs",
    "elapsed_ms",
    "annotation",
)


def _report_row(report: IdentityReport) -> dict:
    """One report as the row every format renders: JSON prints it as is, CSV
    flattens it, and the table lays it out."""
    row: dict = {
        "identity": report.identity.value,
        "order": report.order_checked,
        "status": report.status.value,
    }
    if report.first_mismatch is not None:
        row["first_mismatch"] = {
            "index": report.first_mismatch.index,
            "lhs": str(report.first_mismatch.lhs),
            "rhs": str(report.first_mismatch.rhs),
        }
    row["elapsed_ms"] = round(report.elapsed_seconds * 1000.0, 3)
    if report.annotation is not None:
        row["annotation"] = report.annotation
    return row


def _print_verify_table(rows: Sequence[dict]) -> None:
    print(f"{'identity':<24} {'status':<24} {'order':>6} {'elapsed_ms':>11}  note")
    for row in rows:
        notes = []
        if "first_mismatch" in row:
            m = row["first_mismatch"]
            notes.append(f"first mismatch at q^{m['index']}: {m['lhs']} != {m['rhs']}")
        if row.get("annotation"):
            notes.append(row["annotation"])
        print(
            f"{row['identity']:<24} {row['status']:<24} {row['order']:>6} "
            f"{row['elapsed_ms']:>11.3f}  {'; '.join(notes)}".rstrip()
        )


def _csv_cells(row: dict) -> list:
    flat = {**row, **{f"mismatch_{k}": v for k, v in row.get("first_mismatch", {}).items()}}
    return [flat.get(column, "") for column in _VERIFY_CSV_HEADER]


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 8 <= args.order <= MAX_ORDER:
        return _fail_usage(
            f"--order must lie in [8, {MAX_ORDER}] for verification, got {args.order}"
        )
    errors: list[tuple[IdentityId, Exception]] = []
    if args.all:
        try:
            reports = run_suite(args.order)
        except SuiteError as exc:
            reports, errors = exc.reports, exc.errors
    else:
        ident = IdentityId(args.identity)
        try:
            reports = [check_identity(ident, args.order)]
        except Exception as exc:  # noqa: BLE001 - reported like run_suite's errors
            reports, errors = [], [(ident, exc)]

    rows = [_report_row(r) for r in reports]
    fmt = OutputFormat(args.format)
    if fmt is OutputFormat.TABLE:
        _print_verify_table(rows)
    elif fmt is OutputFormat.JSON:
        print(json.dumps(rows, indent=2))
    else:
        _print_csv(_VERIFY_CSV_HEADER, [_csv_cells(row) for row in rows])
    for ident, exc in errors:
        print(f"error: {_raised(ident, exc)}", file=sys.stderr)
    if errors:
        return 3
    failed = any(r.status is IdentityStatus.FAILED for r in reports)
    return 1 if failed else 0


# -- bench ----------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    raw = [piece for piece in args.sizes.split(",") if piece.strip()]
    if not raw:
        return _fail_usage("--sizes must be a nonempty comma-separated list")
    try:
        sizes = [int(piece) for piece in raw]
    except ValueError:
        return _fail_usage(f"--sizes must be integers, got {args.sizes!r}")
    if not all(8 <= s <= MAX_ORDER for s in sizes):
        return _fail_usage(f"every bench size must lie in [8, {MAX_ORDER}]")

    rows = []
    errors: list[str] = []
    code = 0
    for size in sizes:
        start = time.perf_counter()
        try:
            reports, raised = run_suite(size), []
        except SuiteError as exc:
            reports, raised = exc.reports, exc.errors
        elapsed = time.perf_counter() - start
        failed = [r for r in reports if r.status is IdentityStatus.FAILED]
        if raised or failed:  # no row: the timing of a broken suite means nothing
            errors += [f"size {size}: {_raised(ident, e)}" for ident, e in raised]
            errors += [
                f"size {size}: {r.identity.value}: FAILED at q^{r.first_mismatch.index}" for r in failed
            ]
            code = max(code, 3 if raised else 1)
            continue
        rows.append({"size": size, "elapsed_ms": round(elapsed * 1000.0, 3)})

    fmt = OutputFormat(args.format)
    if fmt is OutputFormat.TABLE:
        print(f"{'size':>8} {'elapsed_ms':>12}")
        for row in rows:
            print(f"{row['size']:>8} {row['elapsed_ms']:>12.3f}")
    elif fmt is OutputFormat.JSON:
        print(json.dumps({"op": "suite", "rows": rows}, indent=2))
    else:
        _print_csv(("size", "elapsed_ms"), [(r["size"], r["elapsed_ms"]) for r in rows])
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return code


# -- wiring ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambertq",
        description="Exact q-series toolkit: expand named series and verify "
        "the identity suite, coefficient by coefficient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, order: bool = True) -> None:
        if order:
            p.add_argument(
                "--order",
                type=int,
                default=DEFAULT_ORDER,
                help=f"number of coefficients q^0..q^(order-1) (default {DEFAULT_ORDER})",
            )
        p.add_argument(
            "--format",
            choices=[f.value for f in OutputFormat],
            default=OutputFormat.TABLE.value,
            help="output format (default table)",
        )

    p_expand = sub.add_parser("expand", help="print the coefficients of a named series")
    p_expand.add_argument("series", choices=[s.value for s in SeriesId])
    add_common(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="check identities coefficient-exactly")
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run the whole suite")
    which.add_argument(
        "--identity",
        choices=[i.value for i in IdentityId],
        help="check a single identity",
    )
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="time the full suite")
    p_bench.add_argument(
        "--sizes",
        required=True,
        help="comma-separated list of orders, e.g. 256,1024,4096",
    )
    add_common(p_bench, order=False)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
