"""SHA-256 digests of the named series, for byte-identity claims across trees.

    PYTHONPATH=src python tests/digest.py 1-400 799-801 2000
    PYTHONPATH=src python tests/digest.py --oracle 1-120 700 10000
    PYTHONPATH=src python tests/digest.py --products 1-400 2000 20000

builds every named series at each order given (an order N, or a range
LO-HI of them, both ends included) and prints one SHA-256 per series and
one over all of them. With `--oracle` it expands the oracle's rows instead,
every series of `oracle._DISPLAYS` by `oracle_expand`, and prints one
SHA-256 per row and one over all of them. With `--products` it builds the
products instead, in four groups, and prints one SHA-256 per group and one
over all of them: `PHI` (`phi`), `ENTRY29` (`entry29_rhs` on each of the
suite's `ENTRY29_TRIPLES`), `POCHHAMMER` (`pochhammer` on each of
`POCHHAMMER_CASES`) and `RUN`. In the first three every product is built by
a standalone call, which solves its own expansion. `RUN` builds the suite's
products, `PHI` and then the seven `entry29_rhs` sides, inside one `_run`
per order, so they share their expansions and resume them;
at each order its strings are those of `PHI` and then those of `ENTRY29`.
The serialisation of one series at one order is

    SID@N:c0,c1,...,c(N-1);

its name, the order, and its coefficients in decimal. The name is the
`SeriesId` value of a named series or an oracle row, and for a product its
call, such as `entry29_rhs(-q, +q, 2)` or `pochhammer(+q, 3)`. A series'
digest hashes its strings at the orders in the order given, and a group's
digest its series' strings, order by order; the last line hashes the same
strings, series after series (for products, group after group). Run it on
two trees with the same arguments and compare the lines.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import nullcontext
from functools import partial
from typing import Callable

from lambertq import (
    ENTRY29_TRIPLES,
    SeriesId,
    SignedMonomial,
    TruncatedSeries,
    entry29_rhs,
    named_series,
    oracle_expand,
    phi,
    pochhammer,
)
from lambertq.constructors import _run
from lambertq.oracle import _DISPLAYS

# (arg, step) of each `pochhammer` product digested: E = (q; q), the
# constant 2 of (-1; q), a symbol of sign -1, and two wide signatures
POCHHAMMER_CASES = [
    (SignedMonomial(1, 1), 1),
    (SignedMonomial(-1, 0), 1),
    (SignedMonomial(-1, 1), 2),
    (SignedMonomial(1, 1), 3),
    (SignedMonomial(-1, 2), 5),
]


def product_groups() -> dict[str, list[tuple[str, Callable[[int], TruncatedSeries]]]]:
    """Each product group's (name, builder of a given order) pairs."""
    suite = [("PHI", phi)] + [
        (f"entry29_rhs({x}, {y}, {base})", lambda n, t=(x, y, base): entry29_rhs(*t, n))
        for x, y, base in ENTRY29_TRIPLES
    ]
    return {
        "PHI": suite[:1],
        "ENTRY29": suite[1:],
        "POCHHAMMER": [
            (f"pochhammer({arg}, {step})", lambda n, arg=arg, step=step: pochhammer(arg, step, n))
            for arg, step in POCHHAMMER_CASES
        ],
        "RUN": suite,
    }


def orders(args: list[str]) -> list[int]:
    out = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def serialise(
    sid: SeriesId, order: int, expand: Callable[[SeriesId, int], TruncatedSeries] = named_series
) -> bytes:
    return named(sid.value, expand(sid, order))


def named(name: str, f: TruncatedSeries) -> bytes:
    coeffs = ",".join(map(str, f))
    return f"{name}@{f.order}:{coeffs};".encode()


def main(args: list[str]) -> int:
    mode = args[0] if args[:1] in (["--oracle"], ["--products"]) else None
    args = args[1:] if mode else args
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ns = orders(args)
    if mode == "--products":
        groups = product_groups()
    else:
        sids, expand = list(SeriesId), named_series
        if mode == "--oracle":
            sids, expand = [sid for sid in SeriesId if sid in _DISPLAYS], oracle_expand
        groups = {sid.value: [(sid.value, partial(expand, sid))] for sid in sids}
    whole = hashlib.sha256()
    for group, members in groups.items():
        one = hashlib.sha256()
        for n in ns:
            with _run() if group == "RUN" else nullcontext():
                for name, build in members:
                    text = named(name, build(n))
                    one.update(text)
                    whole.update(text)
        print(f"{one.hexdigest()}  {group}")
    print(f"{whole.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
