"""SHA-256 digests of the named series, for byte-identity claims across trees.

    PYTHONPATH=src python tests/digest.py 1-400 799-801 2000
    PYTHONPATH=src python tests/digest.py --oracle 1-120 700 10000

builds every named series at each order given (an order N, or a range
LO-HI of them, both ends included) and prints one SHA-256 per series and
one over all of them. With `--oracle` it expands the oracle's rows instead,
every series of `oracle._DISPLAYS` by `oracle_expand`, and prints one
SHA-256 per row and one over all of them. The serialisation of one series
at one order is

    SID@N:c0,c1,...,c(N-1);

its `SeriesId` value, the order, and its coefficients in decimal. A series'
digest hashes its strings at the orders in the order given; the last line
hashes every series' strings, series after series in `SeriesId` order. Run
it on two trees with the same arguments and compare the lines.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Callable

from lambertq import SeriesId, TruncatedSeries, named_series, oracle_expand
from lambertq.oracle import _DISPLAYS


def orders(args: list[str]) -> list[int]:
    out = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def serialise(
    sid: SeriesId, order: int, expand: Callable[[SeriesId, int], TruncatedSeries] = named_series
) -> bytes:
    coeffs = ",".join(map(str, expand(sid, order)))
    return f"{sid.value}@{order}:{coeffs};".encode()


def main(args: list[str]) -> int:
    sids, expand = list(SeriesId), named_series
    if args[:1] == ["--oracle"]:
        args, sids, expand = args[1:], [sid for sid in SeriesId if sid in _DISPLAYS], oracle_expand
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ns = orders(args)
    whole = hashlib.sha256()
    for sid in sids:
        one = hashlib.sha256()
        for n in ns:
            text = serialise(sid, n, expand)
            one.update(text)
            whole.update(text)
        print(f"{one.hexdigest()}  {sid.value}")
    print(f"{whole.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
