"""Named series against their oracle rows, pair by pair.

    PYTHONPATH=src python tests/oracle_rows.py Y_DEF@10000 D1@20000 Z@46341

expands each series SID at order N by `oracle_expand`, builds it by
`named_series`, and prints the oracle's seconds and whether the two are
equal; the last line counts the pairs that match and names those that do
not. It exits 1 if any pair does not match, and 2 on an argument that is
not SID@N with SID a series of the oracle and N a positive int.
"""

from __future__ import annotations

import sys
import time

from lambertq import SeriesId, named_series, oracle_expand
from lambertq.oracle import _DISPLAYS


def pair(arg: str) -> tuple[SeriesId, int]:
    name, _, order = arg.partition("@")
    sid = next((sid for sid in _DISPLAYS if sid.value == name), None)
    if sid is None or not order.isdigit() or int(order) < 1:
        raise ValueError(arg)
    return sid, int(order)


def main(args: list[str]) -> int:
    try:
        checks = [pair(arg) for arg in args]
    except ValueError as err:
        print(f"not SID@N with SID an oracle row and N >= 1: {err}", file=sys.stderr)
        checks = []
    if not checks:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad, total = [], 0.0
    for sid, n in checks:
        start = time.perf_counter()
        row = oracle_expand(sid, n)
        seconds = time.perf_counter() - start
        total += seconds
        ok = row == named_series(sid, n)
        print(f"{sid.value}@{n}: oracle {seconds:.2f} s, {'matches' if ok else 'does not match'}", flush=True)
        if not ok:
            bad.append(f"{sid.value}@{n}")
    print(f"{len(checks) - len(bad)} of {len(checks)} oracle rows match, oracle {total:.2f} s in all; mismatched: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
