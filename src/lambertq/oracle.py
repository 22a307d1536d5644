"""Lattice-enumeration ground truth.

`oracle_expand` restates the display of each named series but PHI as a row
of `_DISPLAYS`: index ranges, and one term w*q^a/((1 - s1*q^b)(1 - s2*q^c))
per index tuple, the second factor optional. One enumerator, `_enumerate`,
adds the lattice points Sum_{u,v>=0} w * s1^u * s2^v * q^(a+ub+vc) of every
term to a coefficient list: a run along a short inner step leaves one or
two marks in a table for its stride, which one running sum per residue
class spreads over the run's points, and a run along a long step, or the
one run of a term with no second factor, is added point by point. Nothing
is shared with the constructors but the `SeriesId` names: no `LambertSpec`
constant, slot bound, geometric kernel or product of series. `oracle_phi`
alone counts the lattice points of another series, equal to PHI by a
classical theorem, so it is a cross-check of PHI rather than of its
display.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import Callable, Iterable, Iterator

from .constructors import SeriesId
from .errors import OrderTooSmall, UnsupportedSeries
from .series import TruncatedSeries

__all__ = [
    "oracle_expand",
    "oracle_partitions",
    "oracle_partition_count",
    "oracle_divisor_lambert",
    "oracle_phi",
]

# (w, a, s1, b, s2, c) stands for w*q^a/((1 - s1*q^b)(1 - s2*q^c)); c may be None
_Term = tuple[int, int, int, int, int, "int | None"]

# An inner run of step c < order // _TABLE_DIVISOR is marked in a stride
# table; a longer step, about _TABLE_DIVISOR points or fewer, is walked. In
# a sweep over the 13 displays at order 700 (best of 5, then of 9), divisors
# 4 to 16 ran within noise of each other (0.89-1.02 s), 1 took 2.05 s and 32
# took 1.30 s; the tables' peak was 1.29 MB at 4, 0.81 MB at 8, 0.49 at 16.
_TABLE_DIVISOR = 8


def _check_int(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _zeros(order: int) -> list[int]:
    """The zero coefficient list of every oracle series, once `order` is checked."""
    _check_int("order", order)
    if order < 1:
        raise OrderTooSmall(f"a series needs order >= 1, got {order}")
    return [0] * order


def _enumerate(coeffs: list[int], terms: Iterable[_Term]) -> list[int]:
    """Add every lattice point of every term to `coeffs`.

    A term with no second factor is one run along b, walked point by point.
    Otherwise the outer step u walks the larger of b and c and the inner
    step v the smaller, each with its own sign. The outer weight flips only
    for an outer sign -1. An inner run a, a+c, a+2c, ... with c below
    order // _TABLE_DIVISOR is not walked: it leaves one mark, +w at a, in a
    table for stride c (s2 = +1), or two, +w at a and -w at a+c, in a table
    for stride 2c (s2 = -1). Once every term is read, a running sum of each
    table along its stride, residue by residue, puts w on every point of
    every run, and the table is added into `coeffs`. A longer step walks
    its run point by point: the run has about _TABLE_DIVISOR points or
    fewer, and a table would cost O(order).
    """
    order = len(coeffs)
    cut = order // _TABLE_DIVISOR
    tables: dict[int, list[int]] = {}  # stride -> marks
    for w, a, s1, b, s2, c in terms:
        if c is None:  # one run: a table would cost O(order) for its order/b points
            while a < order:
                coeffs[a] += w
                if s1 == -1:
                    w = -w
                a += b
            continue
        if b < c:  # from here on (s1, b) is the outer step, (s2, c) the inner
            s1, b, s2, c = s2, c, s1, b
        if c < cut:
            stride = c if s2 == 1 else 2 * c
            marks = tables.get(stride)
            if marks is None:
                marks = tables[stride] = [0] * order
            if s2 == 1:
                while a < order:
                    marks[a] += w
                    if s1 == -1:
                        w = -w
                    a += b
            else:
                while a < order:
                    marks[a] += w
                    if a + c < order:
                        marks[a + c] -= w
                    if s1 == -1:
                        w = -w
                    a += b
        elif s2 == 1:
            while a < order:
                e = a
                while e < order:
                    coeffs[e] += w
                    e += c
                if s1 == -1:
                    w = -w
                a += b
        else:
            while a < order:
                e, wv = a, w
                while e < order:
                    coeffs[e] += wv
                    wv = -wv
                    e += c
                if s1 == -1:
                    w = -w
                a += b
    for stride, marks in tables.items():
        for r in range(stride):
            marks[r::stride] = accumulate(marks[r::stride])
        coeffs[:] = map(add, coeffs, marks)
    return coeffs


def _lattice(t: int) -> Callable[[int], Iterator[_Term]]:
    # Sum_{k,l>=1} (-1)^(k+l) q^(k+l) / ((1-q^(2k-1))(1-q^(tl))), the double
    # lattice of S times L1 (t = 1) or L2 (t = 2), with no product of series
    return lambda top: (
        ((-1) ** (k + l), k + l, 1, 2 * k - 1, 1, t * l)
        for k in range(1, top)
        for l in range(1, top - k + 1)
    )


# Each row maps the top exponent `top` = order - 1 to the terms of the
# display whose leading exponent a is at most `top`.
_DISPLAYS: dict[SeriesId, Callable[[int], Iterator[_Term]]] = {
    # Sum_{m,n>=1} (-1)^m q^(2mn+m) / ((1+q^n)(1-q^(2m-1)))
    SeriesId.Y_DEF: lambda top: (
        ((-1) ** m, 2 * m * n + m, -1, n, 1, 2 * m - 1)
        for m in range(1, top // 3 + 1)
        for n in range(1, (top - m) // (2 * m) + 1)
    ),
    # Sum_{m>=1,k>=0} (-1)^(m+k) q^(3m+k) / ((1-q^(2m-1))(1-q^(2m+k)))
    SeriesId.Y_EQ1: lambda top: (
        ((-1) ** (m + k), 3 * m + k, 1, 2 * m - 1, 1, 2 * m + k)
        for m in range(1, top // 3 + 1)
        for k in range(top - 3 * m + 1)
    ),
    # -Sum_{k>=2} Sum_{n=1}^{k-1} q^(k+n) / ((1+q^(2k-1))(1+q^n))
    SeriesId.Y_EQ2: lambda top: (
        (-1, k + n, -1, 2 * k - 1, -1, n)
        for k in range(2, top)
        for n in range(1, min(k - 1, top - k) + 1)
    ),
    # Sum_{m>=1} Sum_{k=1}^{2m-1} (-1)^(m+k) q^(m+k) / ((1-q^(2m-1))(1-q^k))
    SeriesId.Z: lambda top: (
        ((-1) ** (m + k), m + k, 1, 2 * m - 1, 1, k)
        for m in range(1, top)
        for k in range(1, min(2 * m - 1, top - m) + 1)
    ),
    # Sum_{i>=0} Sum_{j>i} q^(j+1) / ((1+q^(2i+1))(1+q^(2j+1)))
    SeriesId.A: lambda top: (
        (1, j + 1, -1, 2 * i + 1, -1, 2 * j + 1) for i in range(top - 1) for j in range(i + 1, top)
    ),
    # Sum_{i>=0} Sum_{j>i} q^(i+2j+2) / ((1+q^(2i+1))(1+q^(2j+1)))
    SeriesId.B: lambda top: (
        (1, i + 2 * j + 2, -1, 2 * i + 1, -1, 2 * j + 1)
        for i in range(top // 3)
        for j in range(i + 1, (top - i - 2) // 2 + 1)
    ),
    # Sum_{i>=0} Sum_{j=0}^{i} q^(i+2j+2) / ((1+q^(2i+1))(1+q^(2j+1)))
    SeriesId.B1: lambda top: (
        (1, i + 2 * j + 2, -1, 2 * i + 1, -1, 2 * j + 1)
        for i in range(top - 1)
        for j in range(min(i, (top - i - 2) // 2) + 1)
    ),
    SeriesId.D1: _lattice(1),
    SeriesId.D2: _lattice(2),
    # the single sums over k >= 1: S is (-1)^k q^k/(1-q^(2k-1)), L1 is
    # (-1)^k q^k/(1-q^k), L2 is (-1)^k q^k/(1-q^(2k)), L3 is (-1)^(k+1) q^(2k)/(1-q^(2k))
    SeriesId.S: lambda top: (((-1) ** k, k, 1, 2 * k - 1, 1, None) for k in range(1, top + 1)),
    SeriesId.L1: lambda top: (((-1) ** k, k, 1, k, 1, None) for k in range(1, top + 1)),
    SeriesId.L2: lambda top: (((-1) ** k, k, 1, 2 * k, 1, None) for k in range(1, top + 1)),
    SeriesId.L3: lambda top: (((-1) ** (k + 1), 2 * k, 1, 2 * k, 1, None) for k in range(1, top // 2 + 1)),
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


def oracle_partitions(colors: int, part_modulus: int, order: int) -> TruncatedSeries:
    """Generating series of partitions into parts divisible by part_modulus,
    each part coming in `colors` interchangeable colors.

    Classic bounded-knapsack dynamic programming: one pass per (part, color).
    """
    _check_int("colors", colors)
    _check_int("part_modulus", part_modulus)
    if colors < 1:
        raise ValueError(f"colors must be >= 1, got {colors}")
    if part_modulus < 1:
        raise ValueError(f"part_modulus must be >= 1, got {part_modulus}")
    c = _zeros(order)
    c[0] = 1
    for part in range(part_modulus, order, part_modulus):
        for _ in range(colors):
            for total in range(part, order):
                c[total] += c[total - part]
    return TruncatedSeries(c)


def oracle_divisor_lambert(sigma: int, t: int, order: int) -> TruncatedSeries:
    """Coefficients of Sum_{k>=1} sigma^k q^(tk) / (1 - sigma*q^(tk)) by
    direct divisor enumeration: the q^(tn) coefficient is Sum_{d|n} sigma^d.
    """
    _check_int("sigma", sigma)
    _check_int("t", t)
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    c = _zeros(order)
    n = 1
    while t * n < order:
        acc = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                acc += sigma**d
                other = n // d
                if other != d:
                    acc += sigma**other
            d += 1
        c[t * n] = acc
        n += 1
    return TruncatedSeries(c)


def oracle_partition_count(n: int) -> int:
    """p(n) by explicit descending-part recursion; independent of the DP."""
    _check_int("n", n)
    if n < 0:
        raise ValueError("n must be >= 0")

    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, largest), 0, -1):
            total += count(remaining - part, part)
        return total

    return count(n, n)


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
