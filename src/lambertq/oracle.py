"""Brute-force ground truth.

Every function here enumerates integer lattice points of a defining
multi-sum and accumulates +1 or -1 into a coefficient array, one tuple at
a time. Nothing is shared with the constructors module: no geometric
tricks, no incremental state, no products of series. Slow on purpose;
meant for cross-checking at moderate orders. `oracle_phi` alone counts
the lattice points of another series, equal to PHI by a classical
theorem, so it is a cross-check of PHI rather than of its display.
"""

from __future__ import annotations

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

def _y_def(order: int) -> list[int]:
    # quadruple sum with exponent m + 2mn + nk + l(2m-1), sign (-1)^(m+k),
    # over m, n >= 1 and k, l >= 0
    c = [0] * order
    m = 1
    while m + 2 * m < order:
        n = 1
        while m + 2 * m * n < order:
            k = 0
            while m + 2 * m * n + n * k < order:
                base = m + 2 * m * n + n * k
                sign = 1 if (m + k) % 2 == 0 else -1
                e = base
                while e < order:
                    c[e] += sign
                    e += 2 * m - 1
                k += 1
            n += 1
        m += 1
    return c


def _z(order: int) -> list[int]:
    # Sum_{m>=1} Sum_{k=1}^{2m-1} (-1)^(m+k) q^(m+k) expanded against both
    # denominators 1-q^(2m-1) and 1-q^k
    c = [0] * order
    m = 1
    while m + 1 < order:
        for k in range(1, 2 * m):
            if m + k >= order:
                break
            sign = 1 if (m + k) % 2 == 0 else -1
            eu = m + k
            while eu < order:
                e = eu
                while e < order:
                    c[e] += sign
                    e += k
                eu += 2 * m - 1
        m += 1
    return c


def _a(order: int) -> list[int]:
    # Sum_{i>=0} Sum_{j>i} q^(j+1) / ((1+q^(2i+1))(1+q^(2j+1)))
    c = [0] * order
    i = 0
    while i + 2 < order:
        j = i + 1
        while j + 1 < order:
            eu = j + 1
            u = 0
            while eu < order:
                e = eu
                v = 0
                while e < order:
                    c[e] += 1 if (u + v) % 2 == 0 else -1
                    e += 2 * j + 1
                    v += 1
                eu += 2 * i + 1
                u += 1
            j += 1
        i += 1
    return c


def _b(order: int) -> list[int]:
    # Sum_{i>=0} Sum_{j>i} q^(i+2j+2) / ((1+q^(2i+1))(1+q^(2j+1)))
    c = [0] * order
    i = 0
    while 3 * i + 4 < order:
        j = i + 1
        while i + 2 * j + 2 < order:
            eu = i + 2 * j + 2
            u = 0
            while eu < order:
                e = eu
                v = 0
                while e < order:
                    c[e] += 1 if (u + v) % 2 == 0 else -1
                    e += 2 * j + 1
                    v += 1
                eu += 2 * i + 1
                u += 1
            j += 1
        i += 1
    return c


def _b1(order: int) -> list[int]:
    # Sum_{i>=0} Sum_{j=0}^{i} q^(i+2j+2) / ((1+q^(2i+1))(1+q^(2j+1)))
    c = [0] * order
    i = 0
    while i + 2 < order:
        for j in range(0, i + 1):
            if i + 2 * j + 2 >= order:
                break
            eu = i + 2 * j + 2
            u = 0
            while eu < order:
                e = eu
                v = 0
                while e < order:
                    c[e] += 1 if (u + v) % 2 == 0 else -1
                    e += 2 * j + 1
                    v += 1
                eu += 2 * i + 1
                u += 1
        i += 1
    return c


_EXPANDERS = {
    SeriesId.Y_DEF: _y_def,
    SeriesId.Z: _z,
    SeriesId.A: _a,
    SeriesId.B: _b,
    SeriesId.B1: _b1,
}


def oracle_expand(sid: SeriesId, order: int) -> TruncatedSeries:
    """Expand one of the double-sum series by raw lattice enumeration."""
    if sid not in _EXPANDERS:
        raise UnsupportedSeries(
            f"oracle supports {sorted(s.value for s in _EXPANDERS)}, not {sid.value}"
        )
    return TruncatedSeries(_EXPANDERS[sid](order))


def oracle_partitions(colors: int, part_modulus: int, order: int) -> TruncatedSeries:
    """Generating series of partitions into parts divisible by part_modulus,
    each part coming in `colors` interchangeable colors.

    Classic bounded-knapsack dynamic programming: one pass per (part, color).
    """
    if colors < 1:
        raise ValueError(f"colors must be >= 1, got {colors}")
    if part_modulus < 1:
        raise ValueError(f"part_modulus must be >= 1, got {part_modulus}")
    if order < 1:
        raise OrderTooSmall(f"a series needs order >= 1, got {order}")
    c = [0] * order
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
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    c = [0] * order
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
    c = [0] * order
    m = 0
    while m * (m + 1) < order:
        n = 0
        while m * (m + 1) + n * (n + 1) < order:
            c[m * (m + 1) + n * (n + 1)] += 1
            n += 1
        m += 1
    return TruncatedSeries(c)
