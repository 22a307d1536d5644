"""Builders for every named series in the study, plus the generic pieces.

Everything here is built from three expansion moves: a geometric expansion
of q^a/(1 - s*q^b) as Sum_j s^j q^(a+jb), a division by (1 - s*q^e), and a
multiplication by a Pochhammer factor (1 - s*q^e). The single sums, `Y_DEF`
and the product side make these moves on coefficient lists, where the
division and the Pochhammer factor are slice operations that run in
CPython's C loops. The double sums `Y_EQ1`, `Y_EQ2`, `Z`, `A`, `B` and `B1`
make them on one Kronecker-packed integer (`series._Packing`), where each
slice is a shift, a division and an add in CPython's bigint code. No
rational-function arithmetic exists anywhere; each display is expanded
exactly through the truncation order.

The product side `entry29_rhs` cancels the Pochhammer symbols that stand
both above and below its bar before it expands anything. That is exact:
every denominator symbol has constant term 1, so it is a unit of
Z[[q]]/q^N, and f*g/g = f holds in that ring. No identity between series
is assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from functools import reduce
from operator import add, sub
from typing import Callable, Iterator

from .errors import (
    DivergentSpec,
    InvalidExponent,
    ParameterOutOfRange,
    ZeroFactor,
)
from .series import TruncatedSeries, _Packing, geometric_mul_inplace, mul

__all__ = [
    "SignedMonomial",
    "LambertSpec",
    "SeriesId",
    "L1_SPEC",
    "L2_SPEC",
    "L3_SPEC",
    "S_SPEC",
    "lambert_term",
    "lambert_sum",
    "pochhammer",
    "phi",
    "named_series",
    "d2_split_product",
    "bilateral_sum",
    "entry29_rhs",
    "s_window",
    "halving_windows",
]


@dataclass(frozen=True)
class SignedMonomial:
    """The monomial sign * q^exponent with sign in {+1, -1} and exponent >= 0."""

    sign: int
    exponent: int

    def __post_init__(self) -> None:
        # coefficients are built from these without a per-coefficient type check
        if not isinstance(self.sign, int) or not isinstance(self.exponent, int):
            raise TypeError("monomial sign and exponent must be int")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.exponent < 0:
            raise InvalidExponent(f"monomial exponent must be >= 0, got {self.exponent}")

    def __str__(self) -> str:
        head = "+" if self.sign > 0 else "-"
        if self.exponent == 0:
            return f"{head}1"
        if self.exponent == 1:
            return f"{head}q"
        return f"{head}q^{self.exponent}"


@dataclass(frozen=True)
class LambertSpec:
    """Parameters of the one-index sum

        scalar * Sum_{k>=1} num_sign^k * q^(a0+a1*k) / (1 - den_sign*q^(b0+b1*k)).

    Validated on construction: the numerator exponent must be strictly
    increasing and start at degree >= 1 (a1 >= 1, a0+a1 >= 1), and every
    realized denominator exponent must be >= 1 (b1 >= 0, b0+b1 >= 1).
    A negative b0 is fine as long as b0+b1 clears 1.
    """

    scalar: int
    num_sign: int
    a0: int
    a1: int
    den_sign: int
    b0: int
    b1: int

    def __post_init__(self) -> None:
        # coefficients are built from these without a per-coefficient type check
        if not all(isinstance(getattr(self, f.name), int) for f in fields(self)):
            raise TypeError("LambertSpec parameters must be int")
        if self.num_sign not in (1, -1) or self.den_sign not in (1, -1):
            raise ValueError("num_sign and den_sign must be +1 or -1")
        if self.a1 < 1 or self.a0 + self.a1 < 1:
            raise DivergentSpec(
                f"numerator exponents must satisfy a1 >= 1 and a0+a1 >= 1 "
                f"(got a0={self.a0}, a1={self.a1})"
            )
        if self.b1 < 0 or self.b0 + self.b1 < 1:
            raise DivergentSpec(
                f"denominator exponents must satisfy b1 >= 0 and b0+b1 >= 1 "
                f"(got b0={self.b0}, b1={self.b1})"
            )


# The four single Lambert sums the product decompositions are built from.
L1_SPEC = LambertSpec(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=0, b1=1)
L2_SPEC = LambertSpec(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=0, b1=2)
L3_SPEC = LambertSpec(scalar=-1, num_sign=-1, a0=0, a1=2, den_sign=1, b0=0, b1=2)
S_SPEC = LambertSpec(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=-1, b1=2)


class SeriesId(Enum):
    """Names of the series the verification suite talks about."""

    Y_DEF = "Y_DEF"
    Y_EQ1 = "Y_EQ1"
    Y_EQ2 = "Y_EQ2"
    Z = "Z"
    A = "A"
    B = "B"
    B1 = "B1"
    D1 = "D1"
    D2 = "D2"
    S = "S"
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    PHI = "PHI"


# -- elementary expansions ----------------------------------------------------


def _add_geometric(coeffs: list[int], a: int, b: int, s: int, weight: int = 1) -> None:
    """Accumulate weight * q^a/(1 - s*q^b) = weight * Sum_j s^j q^(a+jb) in place."""
    n = len(coeffs)
    e = a
    w = weight
    if s == 1:
        while e < n:
            coeffs[e] += w
            e += b
    else:
        while e < n:
            coeffs[e] += w
            w = -w
            e += b


def lambert_term(a: int, b: int, s: int, order: int) -> TruncatedSeries:
    """The single term q^a / (1 - s*q^b), expanded geometrically."""
    if b < 1:
        raise InvalidExponent(f"denominator exponent must be >= 1, got {b}")
    if a < 0:
        raise InvalidExponent(f"numerator exponent must be >= 0, got {a}")
    if s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {s}")
    coeffs = [0] * order
    _add_geometric(coeffs, a, b, s)
    return TruncatedSeries._trusted(coeffs)


def lambert_sum(spec: LambertSpec, order: int) -> TruncatedSeries:
    """Expand a LambertSpec sum exactly: terms stop once q^(a0+a1*k) >= order."""
    # re-assert the invariants so hand-built (e.g. dataclasses.replace'd)
    # specs cannot sneak through
    LambertSpec(spec.scalar, spec.num_sign, spec.a0, spec.a1, spec.den_sign, spec.b0, spec.b1)
    coeffs = [0] * order
    k = 1
    w = spec.scalar * spec.num_sign
    while spec.a0 + spec.a1 * k < order:
        _add_geometric(
            coeffs,
            spec.a0 + spec.a1 * k,
            spec.b0 + spec.b1 * k,
            spec.den_sign,
            w,
        )
        k += 1
        w *= spec.num_sign
    return TruncatedSeries._trusted(coeffs)


def pochhammer(arg: SignedMonomial, step: int, order: int) -> TruncatedSeries:
    """The product (s*q^a; q^step)_inf = Prod_{n>=0} (1 - s*q^(a+n*step)).

    Factors whose exponent reaches the order contribute nothing mod q^order.
    """
    if step < 1:
        raise ValueError(f"Pochhammer step must be >= 1, got {step}")
    if arg.sign == 1 and arg.exponent == 0:
        raise ZeroFactor("(q^0; .)_inf contains the factor 1 - 1 = 0")
    coeffs = [0] * order
    coeffs[0] = 1
    s = arg.sign
    e = arg.exponent
    if e == 0:  # only reachable with s = -1: constant factor (1 + 1) = 2
        coeffs[0] = 2
        e = step
    op = sub if s == 1 else add
    while e < order:  # times (1 - s*q^e); both slices are copies of the old list
        coeffs[e:] = map(op, coeffs[e:], coeffs[: order - e])
        e += step
    return TruncatedSeries._trusted(coeffs)


def phi(order: int) -> TruncatedSeries:
    """The even quotient (q^4;q^4)_inf^4 / (q^2;q^2)_inf^2."""
    p4 = pochhammer(SignedMonomial(1, 4), 4, order)
    p4sq = mul(p4, p4)
    coeffs = list(mul(p4sq, p4sq).coefficients)
    for k in [*range(2, order, 2)] * 2:  # divide by (q^2;q^2)^2, one (1 - q^k) at a time
        geometric_mul_inplace(coeffs, k, 1)
    return TruncatedSeries._trusted(coeffs)


# -- the named series ---------------------------------------------------------


def _build_y_def(order: int) -> TruncatedSeries:
    # Sum_{m,n>=1} (-1)^m q^(2mn+m) / ((1+q^n)(1-q^(2m-1))).
    # The 1/(1+q^n) factor is tied to n, so expand it per (m, n) pair;
    # 1/(1-q^(2m-1)) distributes over the n-sum and is divided out once
    # per m-slice. This stays on lists: packed, each of the ~order*ln(order)
    # pair terms would cost a full-width operation, which measured slower.
    out = [0] * order
    m = 1
    while 3 * m < order:
        h = [0] * order
        n = 1
        while 2 * m * n + m < order:  # leading exponent of the (m, n) term
            _add_geometric(h, 2 * m * n + m, n, -1)
            n += 1
        geometric_mul_inplace(h, 2 * m - 1, 1)
        lo = 3 * m
        if m % 2:
            out[lo:] = [a - b for a, b in zip(out[lo:], h[lo:])]
        else:
            out[lo:] = [a + b for a, b in zip(out[lo:], h[lo:])]
        m += 1
    return TruncatedSeries._trusted(out)


# The six double sums below are accumulated packed (see series._Packing).
# Each adds fewer than order^2 index pairs +-q^a/((1 -+ q^b)(1 -+ q^c)),
# and one pair adds at most `order` to any coefficient below q^order, so
# order^3 bounds every output coefficient.


def _build_y_eq1(order: int) -> TruncatedSeries:
    # Sum_{m>=1,k>=0} (-1)^(m+k) q^(3m+k) / ((1-q^(2m-1))(1-q^(2m+k))),
    # summed by j = 2m+k as
    # Sum_{j>=2} (-1)^j q^j/(1-q^j) * Sum_{m=1}^{j//2} (-1)^m q^m/(1-q^(2m-1)).
    # The inner sum gains the term m = j/2 at each even j.
    p = _Packing(order, order**3)
    out = inner = 0
    for j in range(2, order - 1):  # the j-slice starts at q^(j+1)
        if j % 2 == 0:
            m = j // 2
            term = p.divide(p.shift(1, m), 2 * m - 1, 1)
            inner = inner - term if m % 2 else inner + term
        part = p.shift(p.divide(inner, j, 1), j)
        out = out - part if j % 2 else out + part
    return p.unpack(out)


def _build_y_eq2(order: int) -> TruncatedSeries:
    # -Sum_{k>=2} q^k/(1+q^(2k-1)) * Sum_{n=1}^{k-1} q^n/(1+q^n).
    # The inner partial sum gains one term per k.
    p = _Packing(order, order**3)
    out = inner = 0
    for k in range(2, order - 1):  # the k-slice starts at q^(k+1)
        inner += p.divide(p.shift(1, k - 1), k - 1, -1)
        out -= p.shift(p.divide(inner, 2 * k - 1, -1), k)
    return p.unpack(out)


def _build_z(order: int) -> TruncatedSeries:
    # Sum_{m>=1} (-1)^m q^m/(1-q^(2m-1)) * Sum_{k=1}^{2m-1} (-1)^k q^k/(1-q^k).
    # The inner sum gains the terms k = 2m-2, 2m-1 when m steps up.
    p = _Packing(order, order**3)
    out = inner = 0
    for m in range(1, order - 1):  # the m-slice starts at q^(m+1)
        for k in (2 * m - 2, 2 * m - 1):
            if 1 <= k < order:
                term = p.divide(p.shift(1, k), k, 1)
                inner = inner - term if k % 2 else inner + term
        part = p.shift(p.divide(inner, 2 * m - 1, 1), m)
        out = out - part if m % 2 else out + part
    return p.unpack(out)


def _build_a(order: int) -> TruncatedSeries:
    # Sum_{i>=0} Sum_{j>i} q^(j+1)/((1+q^(2i+1))(1+q^(2j+1))).
    # Walk i downward keeping the tail sum over j > i, then divide the
    # tail by (1+q^(2i+1)) for each i.
    p = _Packing(order, order**3)
    out = tail = 0
    for i in range(order - 3, -1, -1):  # the (i, i+1) term starts at q^(i+2)
        tail += p.divide(p.shift(1, i + 2), 2 * i + 3, -1)
        out += p.divide(tail, 2 * i + 1, -1)
    return p.unpack(out)


def _build_b(order: int) -> TruncatedSeries:
    # Sum_{i>=0} Sum_{j>i} q^(i+2j+2)/((1+q^(2i+1))(1+q^(2j+1))).
    # Same walk as A, but the tail collects q^(2j+2)-led terms and each
    # i-slice is shifted by q^i after the division.
    p = _Packing(order, order**3)
    out = tail = 0
    j = (order - 3) // 2  # terms need 2j+2 < order
    for i in range((order - 5) // 3, -1, -1):  # the (i, i+1) term starts at q^(3i+4)
        while j > i:
            tail += p.divide(p.shift(1, 2 * j + 2), 2 * j + 1, -1)
            j -= 1
        out += p.shift(p.divide(tail, 2 * i + 1, -1), i)
    return p.unpack(out)


def _build_b1(order: int) -> TruncatedSeries:
    # Sum_{i>=0} Sum_{j<=i} q^(i+2j+2)/((1+q^(2i+1))(1+q^(2j+1))).
    # Here j runs below i, so the inner sum grows forward with i.
    p = _Packing(order, order**3)
    out = inner = 0
    for i in range(order - 2):  # the (i, 0) term starts at q^(i+2)
        if 2 * i + 2 < order:
            inner += p.divide(p.shift(1, 2 * i + 2), 2 * i + 1, -1)
        out += p.shift(p.divide(inner, 2 * i + 1, -1), i)
    return p.unpack(out)


def _build_d1(order: int) -> TruncatedSeries:
    return mul(lambert_sum(S_SPEC, order), lambert_sum(L1_SPEC, order))


def _build_d2(order: int) -> TruncatedSeries:
    return mul(lambert_sum(S_SPEC, order), lambert_sum(L2_SPEC, order))


def d2_split_product(order: int) -> TruncatedSeries:
    """D2 via its other product display:

        (Sum_{i>=0} q^i/(1+q^(2i+1))) * (Sum_{j>=0} q^(2j+2)/(1+q^(2j+1))).
    """
    left = [0] * order
    for i in range(0, order):
        _add_geometric(left, i, 2 * i + 1, -1)
    right = [0] * order
    j = 0
    while 2 * j + 2 < order:
        _add_geometric(right, 2 * j + 2, 2 * j + 1, -1)
        j += 1
    return mul(TruncatedSeries._trusted(left), TruncatedSeries._trusted(right))


_BUILDERS: dict[SeriesId, Callable[[int], TruncatedSeries]] = {
    SeriesId.Y_DEF: _build_y_def,
    SeriesId.Y_EQ1: _build_y_eq1,
    SeriesId.Y_EQ2: _build_y_eq2,
    SeriesId.Z: _build_z,
    SeriesId.A: _build_a,
    SeriesId.B: _build_b,
    SeriesId.B1: _build_b1,
    SeriesId.D1: _build_d1,
    SeriesId.D2: _build_d2,
}

_SPEC_SERIES: dict[SeriesId, LambertSpec] = {
    SeriesId.S: S_SPEC,
    SeriesId.L1: L1_SPEC,
    SeriesId.L2: L2_SPEC,
    SeriesId.L3: L3_SPEC,
}


def named_series(sid: SeriesId, order: int) -> TruncatedSeries:
    """Build any named series exactly through q^(order-1)."""
    if sid in _SPEC_SERIES:
        return lambert_sum(_SPEC_SERIES[sid], order)
    if sid is SeriesId.PHI:
        return phi(order)
    return _BUILDERS[sid](order)


# -- bilateral machinery --------------------------------------------------------


def _check_bilateral_bounds(x: SignedMonomial, y: SignedMonomial, base: int) -> None:
    if base < 2:
        raise ParameterOutOfRange(f"base must be >= 2, got {base}")
    if not 1 <= x.exponent <= base - 1:
        raise ParameterOutOfRange(
            f"x exponent must lie in [1, base-1] = [1, {base - 1}], got {x.exponent}"
        )
    if not 1 <= y.exponent <= base - 1:
        raise ParameterOutOfRange(
            f"y exponent must lie in [1, base-1] = [1, {base - 1}], got {y.exponent}"
        )
    if x.exponent + y.exponent > base:
        # the n = -1 term x^(-1)*(Q/xy)/(1 - (Q/(y*Q)) ...) would carry the
        # negative leading exponent x.exp + y.exp - base; keep everything
        # inside plain power series
        raise ParameterOutOfRange(
            f"x.exponent + y.exponent must be <= base, got "
            f"{x.exponent} + {y.exponent} > {base}"
        )


def bilateral_sum(x: SignedMonomial, y: SignedMonomial, base: int, order: int) -> TruncatedSeries:
    """Sum over all integers n of x^n / (1 - y*Q^n), with Q = q^base.

    The n >= 0 half expands directly. Each n <= -1 term is first rewritten
    as -y^(-1)Q^(-n) / (1 - y^(-1)Q^(-n)), which clears all negative
    exponents under the admissibility bounds.
    """
    _check_bilateral_bounds(x, y, base)
    coeffs = [0] * order
    sx, ex = x.sign, x.exponent
    sy, ey = y.sign, y.exponent

    n = 0
    while n * ex < order:  # leading exponent of the n-th forward term
        _add_geometric(coeffs, n * ex, ey + n * base, sy, sx**n)
        n += 1

    m = 1  # m = -n for the backward tail
    while m * (base - ex) - ey < order:
        # x^(-m)/(1 - y*Q^(-m)) = -(s_x q^(-e_x))^m * y^(-1)Q^m/(1 - y^(-1)Q^m)
        #                       = -s_x^m s_y q^(m(base-e_x)-e_y) / (1 - s_y q^(m*base-e_y))
        _add_geometric(
            coeffs,
            m * (base - ex) - ey,
            m * base - ey,
            sy,
            -(sx**m) * sy,
        )
        m += 1

    return TruncatedSeries._trusted(coeffs)


def entry29_rhs(x: SignedMonomial, y: SignedMonomial, base: int, order: int) -> TruncatedSeries:
    """The closed product form matching bilateral_sum:

        (Q; Q)^2 (xy; Q) (Q/xy; Q)  /  [(x; Q)(Q/x; Q)(y; Q)(Q/y; Q)]

    all Pochhammer symbols with step = base, x and y signed monomials.

    A symbol that stands both above and below the bar is cancelled before
    anything is expanded. This is exact ring algebra, f*g/g = f: every
    denominator symbol has exponent >= 1 under the bounds, so it is a unit
    of Z[[q]]/q^order, and equal (sign, exponent, step) give equal series.
    For x = y = q, Q = q^3 the quotient is (Q;Q)^2/((q;Q)(q^2;Q)); for
    x = q, y = q^2, Q = q^4 it is (Q;Q)^2/(q^2;Q)^2.
    """
    _check_bilateral_bounds(x, y, base)
    sx, ex = x.sign, x.exponent
    sy, ey = y.sign, y.exponent
    sxy = sx * sy
    if ex + ey == base and sxy == 1:
        raise ZeroFactor(
            "the (Q/xy; Q) factor starts 1 - q^0 = 0 when "
            "x.exponent + y.exponent = base with x.sign*y.sign = +1"
        )
    num = Counter([(1, base), (1, base), (sxy, ex + ey), (sxy, base - ex - ey)])
    den = Counter([(sx, ex), (sx, base - ex), (sy, ey), (sy, base - ey)])
    common = num & den
    num -= common  # (Q; Q) never cancels: denominator exponents stay below base
    den -= common

    factors = []
    for (sign, e), k in num.items():
        factors += [pochhammer(SignedMonomial(sign, e), base, order)] * k
    coeffs = list(reduce(mul, factors).coefficients)
    # divide by the denominator one (1 - sign*q^k) at a time; the bounds keep k >= 1
    for sign, e in den.elements():
        for k in range(e, order, base):
            geometric_mul_inplace(coeffs, k, sign)
    return TruncatedSeries._trusted(coeffs)


def _add_s_term(coeffs: list[int], m: int) -> None:
    """Accumulate the m-th term (-1)^m q^m / (1 - q^(2m-1)) of the bilateral S sum.

    An index m <= 0 carries a negative denominator exponent, so its term is
    rewritten first as -(-1)^m q^(1-m)/(1 - q^(1-2m)), an honest power series.
    """
    w = -1 if m % 2 else 1
    if m >= 1:
        _add_geometric(coeffs, m, 2 * m - 1, 1, w)
    else:
        _add_geometric(coeffs, 1 - m, 1 - 2 * m, 1, -w)


def s_window(lo: int, hi: int, order: int) -> TruncatedSeries:
    """Partial sum of (-1)^m q^m / (1 - q^(2m-1)) over integer m in [lo, hi].

    The full bilateral sum is the limit lo -> -inf, hi -> +inf.
    """
    if lo > hi:
        raise ValueError(f"empty window: lo={lo} > hi={hi}")
    coeffs = [0] * order
    for m in range(lo, hi + 1):
        _add_s_term(coeffs, m)
    return TruncatedSeries._trusted(coeffs)


def halving_windows(count: int, order: int) -> Iterator[tuple[TruncatedSeries, TruncatedSeries]]:
    """The pairs (s_window(1 - m, m, order), s_window(1, m, order)) for m = 1..count.

    Both windows grow as running sums: each step adds the terms 1 - m and m
    to the first and the term m to the second.
    """
    full = [0] * order
    half = [0] * order
    for m in range(1, count + 1):
        _add_s_term(full, 1 - m)
        _add_s_term(full, m)
        _add_s_term(half, m)
        yield TruncatedSeries._trusted(full), TruncatedSeries._trusted(half)
