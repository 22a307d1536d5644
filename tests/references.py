"""The references that more than one module checks against.

A reference lives here when more than one module uses it: a test module,
a script under `tests/` or a CI step. A reference that only one test
module uses stays in that module. The three reference oracles check
their order through the oracle's own `_zeros`, so a bad order fails as it
does in `oracle_expand`.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import add, sub

from lambertq import TruncatedSeries, constructors
from lambertq.oracle import _zeros
from lambertq.series import _check_ints


def schoolbook(f, g):
    """Reference product: the plain double loop, truncated to the smaller order."""
    n = min(f.order, g.order)
    out = [0] * n
    for i, a in enumerate(f.coefficients[:n]):
        for j, b in enumerate(g.coefficients[: n - i]):
            out[i + j] += a * b
    return TruncatedSeries(out)


def geometric_mul_inplace(coeffs, step, sign):
    """Reference division by 1 - sign*q^step on a coefficient list, in
    place: out[n] = f[n] + sign*out[n-step], which `_Packing.divide` is
    held to.

    Dividing by 1 - q^k makes each residue class mod k a running sum, one
    `accumulate`; for sign = -1, 1/(1 + q^k) = (1 - q^k)/(1 - q^(2k)) is one
    slice pass first. A step of at least len(coeffs) divides by 1 mod
    q^len(coeffs), so the list is left as it is. A long step, step^2 >
    len(coeffs), has more classes than rows: the same sums run row by row
    instead, each row of `step` coefficients adding the one before it.
    """
    if step < 1:
        raise ValueError("geometric step must be at least 1")
    if sign not in (1, -1):
        raise ValueError("geometric sign must be +1 or -1")
    n = len(coeffs)
    if step >= n:
        return
    if sign == -1:
        coeffs[step:] = map(sub, coeffs[step:], coeffs[: n - step])
        step *= 2
    if step * step > n:
        for k in range(step, n, step):
            coeffs[k : k + step] = map(add, coeffs[k : k + step], coeffs[k - step : k])
        return
    for r in range(step):
        coeffs[r::step] = accumulate(coeffs[r::step])


def euler_by_pentagonal(n):
    """Reference E = (q;q)_inf through n terms by Euler's pentagonal theorem:
    Sum_k (-1)^k q^(k(3k-1)/2) over all integers k. No builder uses it."""
    coeffs = [0] * n
    k = 0
    while k * (3 * k - 1) // 2 < n:
        for j in {k, -k}:
            if j * (3 * j - 1) // 2 < n:
                coeffs[j * (3 * j - 1) // 2] += (-1) ** k
        k += 1
    return coeffs


def bilateral_by_pairs(x, y, base, order):
    """Sum over integers n of x^n/(1 - y*Q^n), Q = q^base, by its lattice
    points (n, j), j >= 0. For n >= 0 the term is Sum_j x^n y^j Q^(nj). For
    n = -m < 0 it is first rewritten as `bilateral_sum` rewrites it,
    -x^(-m) y^(-1)Q^m/(1 - y^(-1)Q^m) = -Sum_{j>=1} x^(-m) y^(-j) Q^(mj),
    which clears every negative exponent under the bounds."""
    (sx, ex), (sy, ey) = (x.sign, x.exponent), (y.sign, y.exponent)
    coeffs = [0] * order
    n = 0
    while n * ex < order:
        j = 0
        while n * ex + j * (ey + n * base) < order:
            coeffs[n * ex + j * (ey + n * base)] += sx**n * sy**j
            j += 1
        n += 1
    m = 1
    while m * (base - ex) - ey < order:
        j = 1
        while m * (j * base - ex) - j * ey < order:
            coeffs[m * (j * base - ex) - j * ey] -= sx**m * sy**j
            j += 1
        m += 1
    return TruncatedSeries(coeffs)


def factors(symbols, order):
    """Counter of the binomial factors (s, k), k < order, of the Pochhammer
    symbols (s*q^a; q^step)_inf given as (s, a, step), with multiplicity."""
    return Counter((s, k) for s, a, step in symbols for k in range(a, order, step))


# (q^4;q^4)^4 above and (q^2;q^2)^2 below the bar
PHI_SYMBOLS = ([(1, 4, 4)] * 4, [(1, 2, 2)] * 2)


def log_derivative(num, den, order):
    """(const, a) with Prod_num (1 - s*q^k) / Prod_den (1 - s*q^k) equal to
    const * P mod q^order, P = 1 + O(q), and a = q d/dq log P through
    q^(order-1), factor by factor.

    The Counters hold binomial factors (s, k), s = +-1 and 0 <= k < order,
    with multiplicity; only `num` may hold a k = 0 factor, (-1, 0), and
    (1 + q^0) = 2 goes into `const`. q d/dq is a derivation, so each other
    factor adds q d/dq log(1 - s*q^k) = -k*Sum_{j>=1} s^j q^(jk), negated
    below the bar, and a factor on both sides cancels exactly.
    """
    const, a = 1, [0] * order
    for side, sign in ((num, -1), (den, 1)):
        for (s, k), mult in side.items():
            if k == 0:  # (1 + q^0), above the bar only
                const *= 2**mult
            else:
                constructors._add_family(a, k, k, s, sign * mult * k * s)
    return const, a


def factor_route(num, den, order):
    """The product of binomial factors solved from the log-derivative of
    the raw factors, whatever its signature."""
    const, a = log_derivative(num, den, order)
    return constructors._spread(const, constructors._solve(a), 1, order)


def symbol_route(num, den, order):
    """`factor_route` on the binomial factors of Pochhammer symbols (s, a, step)."""
    return factor_route(factors(num, order), factors(den, order), order)


def oracle_partitions(colors: int, part_modulus: int, order: int) -> TruncatedSeries:
    """Generating series of partitions into parts divisible by part_modulus,
    each part coming in `colors` interchangeable colors.

    Classic bounded-knapsack dynamic programming: one pass per (part, color).
    """
    _check_ints(colors=colors, part_modulus=part_modulus)
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
    _check_ints(sigma=sigma, t=t)
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
    _check_ints(n=n)
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
