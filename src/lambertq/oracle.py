"""Lattice-enumeration ground truth.

`oracle_expand` restates the display of each named series but PHI as a row
of `_DISPLAYS`: families of terms w*ws^t * q^(a+t*da) / ((1 - s1*q^(b+t*db))
(1 - s2*q^c)), t = 0..count-1, one index of the display held fixed and the
other run as t, the second factor optional (c is None: the run along v is
one point). One enumerator, `_enumerate`, adds every lattice point of every
family to a coefficient list: term t has the points
a + t*da + u*(b + t*db) + v*c, u, v >= 0, weighted w * ws^t * s1^u * s2^v;
the steps b and c are at least 1 and da, db at least 0. For each outer step
u the points with v = 0 of all the terms lie on one progression, start
a + u*b and stride sigma = da + u*db: a row. One walker, `_walk_family`,
reads a family's rows and then its tail.

Runs are kept in stride tables, one per (stride, sign); an entry y at x
stands for the run y*sign^j at x + j*stride, j >= 0, so a run of n points
w*ws^j at p + j*sigma is two marks in the table of (sigma, ws): +w at p and
-w*ws^n at p + n*sigma, either dropped at or past the order. A c below
`_table_cut(order)`, about 1.5*sqrt(order), is not walked: one strided
slice (`_add_run`) puts each row's points into the table of (c, s2). A
longer c, or none, makes the row straight: its two marks and those of its
copies at +v*c, weighted s2^v, go into the table of (sigma, ws), each mark
and its copies one walk along c (`_mark_copies`). A table costs about one
pass over the list, so the straight rows of one key, copies included, are
sliced into the list until together they reach `order` points, and marked
from there on; a key that a c-run already tabled marks them all. Only a row
of at least _SHORT terms is straight, so sigma is at most order // 23; a
straight row of sigma 0 is the summed weight of its terms on one point,
with its copies. The points of a row only thin out as u grows, so once a
row holds fewer than _SHORT terms, no later row holds another: the rest of
the family, its tail, is those terms' runs along u, stride b + t*db and
sign s1, into the c table, or, with no table, each term's lattice along u
and c, added once straight into the list: its runs along u of at least
_SHORT points one slice each, the rest point by point.

Once every family is walked, each table is spread, added into the list and
released, so that no two spread tables are held at once. The spread is a
running sum along the stride, residue by residue; for sign -1 the table
shifted by one stride is subtracted first and the sum runs along twice the
stride, as 1/(1 + q^s) = (1 - q^s)/(1 - q^2s).

The oracle stays a count of lattice points: a finite run is two marks where
an infinite one is one. Nothing is shared with the constructors but the
`SeriesId` names: no `LambertSpec` constant, slot bound, geometric kernel or
product of series. `oracle_phi` alone counts the lattice points of another
series, equal to PHI by a classical theorem, so it is a cross-check of PHI
rather than of its display.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, sub
from typing import Callable, Iterable, Iterator

from .constructors import SeriesId
from .errors import UnsupportedSeries
from .series import TruncatedSeries, _check_args

__all__ = [
    "oracle_expand",
    "oracle_phi",
]

# (w, ws, a, da, s1, b, db, s2, c, count): the terms t = 0..count-1 of
# w*ws^t * q^(a+t*da) / ((1 - s1*q^(b+t*db)) (1 - s2*q^c)); c may be None
_Family = tuple[int, int, int, int, int, int, int, int, "int | None", int]

# A run along a fixed step c below _table_cut(order) is marked in a stride
# table; a longer c, or none, makes its rows straight. With straight rows as
# marks, the best cut order // d moved with the order: d = 16 at 700, 32 at
# 1500 and 3000, and 48, the largest tried, at 10000 (BENCH_19.json: all 13
# rows, best of 6, 3, 1 and 1 runs). 1.5*sqrt(order) came within 5 % of the
# best d at each order and beat it at 3000; at 10000 it took 6.2 s against
# 11.4 s for order // 16 and 21.4 s for order // 8, the cut when straight
# rows were sliced.
def _table_cut(order: int) -> int:
    return 3 * isqrt(order) // 2


# A run of fewer than _SHORT points is walked point by point, and a row of
# fewer than _SHORT terms ends its family's rows: the rest is those terms'
# own runs along u. Swept before straight rows became marks (BENCH_15.json),
# the double sums ran within noise from 8 to 32 (B1 21 % slower at 48 than
# at 24); below 16 Y_DEF and the single sums slowed (at order 700 Y_DEF took
# 1.26x the term-by-term time at 4, 1.05x at 8 and 0.86x at 24). Swept again
# with marks (BENCH_19.json), 12, 16 and 32 were each faster than 24 at one
# of 700 and 1500 and slower at the other; 48 was slower at both.
_SHORT = 24


def _zeros(order: int) -> list[int]:
    """The zero coefficient list of every oracle series, once `order` is checked."""
    _check_args(order)
    return [0] * order


def _add_run(target: list[int], p: int, step: int, n: int, w: int, ws: int) -> None:
    """Add w * ws^j to target[p + j*step] for j < n: one strided slice, two
    for ws = -1, or a walk for fewer than _SHORT points or a step of 0."""
    if n < _SHORT or not step:
        for _ in range(n):
            target[p] += w
            p += step
            w *= ws
    elif ws == 1:
        stop = p + n * step
        target[p:stop:step] = [x + w for x in target[p:stop:step]]
    else:
        stop, step2 = p + n * step, 2 * step
        target[p:stop:step2] = [x + w for x in target[p:stop:step2]]
        p += step
        target[p:stop:step2] = [x - w for x in target[p:stop:step2]]


def _mark_copies(table: list[int], p: int, step: int, n: int, w: int, ws: int, c: int, s2: int) -> None:
    """Add the two marks of a run of n points w*ws^j at p + j*step, +w at p
    and -w*ws^n at p + n*step, and those of each of its copies at +v*c,
    v >= 1, weighted s2^v, to the table of (step, ws), dropping any at or
    past the order: each mark and its copies are one walk along c."""
    order = len(table)
    for x, y in ((p, w), (p + n * step, -w * ws**n)):
        while x < order:
            table[x] += y
            x += c
            y *= s2


def _walk_family(
    coeffs: list[int], tables: dict[tuple[int, int], list[int]], held: dict[tuple[int, int], int],
    family: _Family, cut: int,
) -> None:
    """Add a family's rows and then its tail, the terms of its first row of
    fewer than _SHORT: with c below the table cut, rows and tail runs along
    u go into the table of (c, s2); else each row is straight, with its
    copies along c, and each tail term's lattice goes into `coeffs`. The
    module docstring is the full account."""
    w, ws, a, da, s1, b, db, s2, c, count = family
    order = len(coeffs)
    top = order - 1
    c = order if c is None else c  # None: the run along v is its first point
    target = None
    if c < cut:
        target = tables.get((c, s2))
        if target is None:
            target = tables[c, s2] = [0] * order
    p, step = a, da
    while p < order:
        n = min(count, (top - p) // step + 1) if step else count  # the row's terms
        if n < _SHORT:  # the tail: each term's run along u, with no table also its copies along c
            for _ in range(n):
                if target is not None:
                    _add_run(target, p, b, (top - p) // b + 1, w, s1)
                else:
                    e, y = p, w  # the run along u from e, shortening as e moves along c
                    while e < order and (k := (top - e) // b + 1) >= _SHORT:
                        _add_run(coeffs, e, b, k, y, s1)
                        e += c
                        y *= s2
                    # the short runs are walked here: one _add_run call per run made
                    # perfbench's oracle wall_ref 8 % worse (BENCH_27.json)
                    while e < order:
                        f, z = e, y
                        while f < order:
                            coeffs[f] += z
                            f += b
                            z *= s1
                        e += c
                        y *= s2
                p += step
                b += db
                w *= ws
            return
        if target is not None:
            _add_run(target, p, step, n, w, ws)
        elif not step:
            _add_run(coeffs, p, c, (top - p) // c + 1, w * (n if ws == 1 else n & 1), s2)
        else:
            marks = tables.get((step, ws))
            if marks is None:
                counts = [min(n, (top - e) // step + 1) for e in range(p, order, c)]  # each copy's points
                held[step, ws] = points = held.get((step, ws), 0) + sum(counts)
                if points < order:
                    e, y = p, w
                    for k in counts:
                        _add_run(coeffs, e, step, k, y, ws)
                        e += c
                        y *= s2
                else:
                    marks = tables[step, ws] = [0] * order
            if marks is not None:
                _mark_copies(marks, p, step, n, w, ws, c, s2)
        p += b
        step += db
        w *= s1


def _enumerate(coeffs: list[int], families: Iterable[_Family]) -> list[int]:
    """Add every lattice point of every family of terms to `coeffs`: one
    `_walk_family` call per family, then each stride table spread into
    `coeffs` and released, as the module docstring says."""
    order = len(coeffs)
    cut = _table_cut(order)
    tables: dict[tuple[int, int], list[int]] = {}  # (stride, sign) -> marks
    held: dict[tuple[int, int], int] = {}  # (stride, sign) -> points of the straight rows sliced so far
    for family in families:
        _walk_family(coeffs, tables, held, family, cut)
    while tables:
        (stride, sign), marks = tables.popitem()
        if sign == -1:
            marks[stride:] = map(sub, marks[stride:], marks)
            stride *= 2
        for r in range(stride):
            marks[r::stride] = accumulate(marks[r::stride])
        coeffs[:] = map(add, coeffs, marks)
    return coeffs


def _y_def(top: int) -> Iterator[_Family]:
    # Sum_{m,n>=1} (-1)^m q^(2mn+m) / ((1+q^n)(1-q^(2m-1))): for fixed m the
    # n >= 2m-1, ties included, then for fixed n the m >= (n+3)//2, where 2m-1 > n
    m = 1
    while m * (4 * m - 1) <= top:
        yield ((-1) ** m, 1, m * (4 * m - 1), 2 * m, -1, 2 * m - 1, 1, 1, 2 * m - 1, (top - m) // (2 * m) - 2 * m + 2)
        m += 1
    n = 1
    while (m0 := (n + 3) // 2) * (2 * n + 1) <= top:
        yield ((-1) ** m0, -1, m0 * (2 * n + 1), 2 * n + 1, 1, 2 * m0 - 1, 2, -1, n, top // (2 * n + 1) - m0 + 1)
        n += 1


def _lattice(t: int) -> Callable[[int], Iterator[_Family]]:
    # Sum_{k,l>=1} (-1)^(k+l) q^(k+l) / ((1-q^(2k-1))(1-q^(tl))), the double
    # lattice of S times L1 (t = 1) or L2 (t = 2), with no product of series:
    # for fixed k the l >= ceil((2k-1)/t), ties included, then for fixed l
    # the k >= (tl+3)//2, where 2k-1 > tl
    def families(top: int) -> Iterator[_Family]:
        k = 1
        while k + (l0 := -(-(2 * k - 1) // t)) <= top:
            yield ((-1) ** (k + l0), -1, k + l0, 1, 1, t * l0, t, 1, 2 * k - 1, top - k - l0 + 1)
            k += 1
        l = 1
        while (k0 := (t * l + 3) // 2) + l <= top:
            yield ((-1) ** (k0 + l), -1, k0 + l, 1, 1, 2 * k0 - 1, 2, 1, t * l, top - l - k0 + 1)
            l += 1

    return families


# Each row maps the top exponent `top` = order - 1 to the families of the
# display, built when the row is called; a family holds the terms whose
# leading exponent a + t*da is at most `top`. The index held fixed is the
# one of the smaller step, which becomes c; a display whose smaller step
# changes sides splits into two families at the tie, and the tie goes to
# the first.
_DISPLAYS: dict[SeriesId, Callable[[int], Iterable[_Family]]] = {
    SeriesId.Y_DEF: _y_def,
    # Sum_{m>=1,k>=0} (-1)^(m+k) q^(3m+k) / ((1-q^(2m-1))(1-q^(2m+k))), k run for fixed m
    SeriesId.Y_EQ1: lambda top: (
        ((-1) ** m, -1, 3 * m, 1, 1, 2 * m, 1, 1, 2 * m - 1, top - 3 * m + 1) for m in range(1, top // 3 + 1)
    ),
    # -Sum_{k>=2} Sum_{n=1}^{k-1} q^(k+n) / ((1+q^(2k-1))(1+q^n)), k > n run for fixed n
    SeriesId.Y_EQ2: lambda top: (
        (-1, 1, 2 * n + 1, 1, -1, 2 * n + 1, 2, -1, n, top - 2 * n) for n in range(1, (top - 1) // 2 + 1)
    ),
    # Sum_{m>=1} Sum_{k=1}^{2m-1} (-1)^(m+k) q^(m+k) / ((1-q^(2m-1))(1-q^k)),
    # m >= m0 = (k+2)//2 run for fixed k
    SeriesId.Z: lambda top: (
        ((-1) ** (m0 + k), -1, m0 + k, 1, 1, 2 * m0 - 1, 2, 1, k, top - k - m0 + 1)
        for k in range(1, top)
        for m0 in ((k + 2) // 2,)
        if m0 + k <= top
    ),
    # Sum_{i>=0} Sum_{j>i} q^(j+1) / ((1+q^(2i+1))(1+q^(2j+1))), j run for fixed i
    SeriesId.A: lambda top: (
        (1, 1, i + 2, 1, -1, 2 * i + 3, 2, -1, 2 * i + 1, top - 1 - i) for i in range(top - 1)
    ),
    # Sum_{i>=0} Sum_{j>i} q^(i+2j+2) / ((1+q^(2i+1))(1+q^(2j+1))), j run for fixed i
    SeriesId.B: lambda top: (
        (1, 1, 3 * i + 4, 2, -1, 2 * i + 3, 2, -1, 2 * i + 1, (top - i - 2) // 2 - i)
        for i in range((top - 4) // 3 + 1)
    ),
    # Sum_{i>=0} Sum_{j=0}^{i} q^(i+2j+2) / ((1+q^(2i+1))(1+q^(2j+1))), i run for fixed j
    SeriesId.B1: lambda top: (
        (1, 1, 3 * j + 2, 1, -1, 2 * j + 1, 2, -1, 2 * j + 1, top - 1 - 3 * j) for j in range((top - 2) // 3 + 1)
    ),
    SeriesId.D1: _lattice(1),
    SeriesId.D2: _lattice(2),
    # the single sums over k >= 1, one family each: S is (-1)^k q^k/(1-q^(2k-1)), L1 is
    # (-1)^k q^k/(1-q^k), L2 is (-1)^k q^k/(1-q^(2k)), L3 is (-1)^(k+1) q^(2k)/(1-q^(2k))
    SeriesId.S: lambda top: ((-1, -1, 1, 1, 1, 1, 2, 1, None, top),),
    SeriesId.L1: lambda top: ((-1, -1, 1, 1, 1, 1, 1, 1, None, top),),
    SeriesId.L2: lambda top: ((-1, -1, 1, 1, 1, 2, 2, 1, None, top),),
    SeriesId.L3: lambda top: ((1, -1, 2, 2, 1, 2, 2, 1, None, top // 2),),
}


def oracle_expand(sid: SeriesId, order: int) -> TruncatedSeries:
    """Expand a named series by raw lattice enumeration of its display.

    `PHI` and anything not a `SeriesId` raise `UnsupportedSeries`; a non-int
    order raises `TypeError`, one below 1 `OrderTooSmall`.
    """
    if not isinstance(sid, SeriesId) or sid not in _DISPLAYS:
        name = sid.value if isinstance(sid, SeriesId) else repr(sid)
        raise UnsupportedSeries(f"oracle supports {sorted(s.value for s in _DISPLAYS)}, not {name}")
    return TruncatedSeries(_enumerate(_zeros(order), _DISPLAYS[sid](order - 1)))


def oracle_phi(order: int) -> TruncatedSeries:
    """PHI by counting the pairs m, n >= 0 with m(m+1) + n(n+1) = k.

    A cross-check, not an expansion of PHI's display: the count is
    psi(q^2)^2, psi(q) = Sum_{n>=0} q^(n(n+1)/2), which equals
    (q^4;q^4)^4/(q^2;q^2)^2 by Gauss's identity
    psi(q) = (q^2;q^2)/(q;q^2), a classical theorem.
    """
    c = _zeros(order)
    m = 0
    while m * (m + 1) < order:
        n = 0
        while m * (m + 1) + n * (n + 1) < order:
            c[m * (m + 1) + n * (n + 1)] += 1
            n += 1
        m += 1
    return TruncatedSeries(c)
