"""Builders for every named series in the study, plus the generic pieces.

The sums here are built from two expansion moves: a geometric expansion
of q^a/(1 - s*q^b) as Sum_j s^j q^(a+jb), on coefficient lists, and a
division by (1 - s*q^e). `_add_family` is the one place geometric runs are
added to a list: a one-index family of them per call, as strided slices
along either index. The double sums and `Y_DEF` pack those lists into
Kronecker-packed integers (`series._Packing`), where a division is a few
shift-adds in CPython's bigint code, and sum them in one packed integer.
`Y_DEF` adds each (m, n) term as a run along the smaller of its two steps
into the group of that step, one family per group, and divides each group
once by the other factor its terms share, so about 1.5*sqrt(order)
divisions are made. The double sums `Y_EQ1`, `Y_EQ2`, `Z`, `A`, `B` and
`B1` are each one row of `_DOUBLE_SUMS`, the families of a display whose
outer index bounds a prefix of the inner sum, all summed by one engine,
`_double_sum`: one division per outer term below a split of about
4*order^(1/3), and above it the summations exchanged, so that each power
of an outer denominator is one division of one family per inner family.
No rational-function arithmetic exists anywhere; each display is expanded
exactly through the truncation order.

Every product (`pochhammer`, `phi`, `entry29_rhs`) starts from its
Pochhammer symbols (s*q^a; q^step)_inf and their signature: by exact ring
identities alone it equals const * Prod_d E(q^d)^c(d) mod q^order,
E = (q;q)_inf, read off each symbol's residue class. It is expanded in
q^g, g = gcd(supp c), by its primitive signature c/g. That expansion p is
solved from a = q d/dq log p, which divisor sums give (Euler): n*p_n =
Sum_j a_j p_(n-j), by divide and conquer over `mul` (`_solve`). A run
(`_run`) keeps each named series by (SeriesId, order), built once, and each
expansion by its primitive signature, so products that differ only by
q -> q^g share one; `D1` and `D2` read `S`, `L1` and `L2` from it.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from enum import Enum
from functools import partial
from itertools import accumulate
from math import gcd
from operator import add
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    DivergentSpec,
    InvalidExponent,
    ParameterOutOfRange,
    UnsupportedSeries,
    ZeroFactor,
)
from .series import TruncatedSeries, _check_args, _check_ints, _Packing, _Record, mul

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


# -- argument checks ------------------------------------------------------------


class SignedMonomial(_Record):
    """The monomial sign * q^exponent with sign in {+1, -1} and exponent >= 0."""

    __slots__ = ("sign", "exponent")

    def __init__(self, sign: int, exponent: int) -> None:
        # coefficients are built from these without a per-coefficient type check
        _check_ints(sign=sign, exponent=exponent)
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if exponent < 0:
            raise InvalidExponent(f"monomial exponent must be >= 0, got {exponent}")
        self._set(sign, exponent)

    def __str__(self) -> str:
        head = "+" if self.sign > 0 else "-"
        if self.exponent == 0:
            return f"{head}1"
        if self.exponent == 1:
            return f"{head}q"
        return f"{head}q^{self.exponent}"


def _check_monomials(**params: object) -> None:
    """Reject a named parameter that is not a SignedMonomial by a TypeError
    naming it."""
    for name, value in params.items():
        if not isinstance(value, SignedMonomial):
            raise TypeError(f"{name} must be a SignedMonomial, got {value!r}")


class LambertSpec(_Record):
    """Parameters of the one-index sum

        scalar * Sum_{k>=1} num_sign^k * q^(a0+a1*k) / (1 - den_sign*q^(b0+b1*k)).

    Validated on construction: the numerator exponent must be strictly
    increasing and start at degree >= 1 (a1 >= 1, a0+a1 >= 1), and every
    realized denominator exponent must be >= 1 (b1 >= 0, b0+b1 >= 1).
    A negative b0 is fine as long as b0+b1 clears 1.
    """

    __slots__ = ("scalar", "num_sign", "a0", "a1", "den_sign", "b0", "b1")

    def __init__(
        self, scalar: int, num_sign: int, a0: int, a1: int, den_sign: int, b0: int, b1: int
    ) -> None:
        # coefficients are built from these without a per-coefficient type check
        _check_ints(scalar=scalar, num_sign=num_sign, a0=a0, a1=a1, den_sign=den_sign, b0=b0, b1=b1)
        if num_sign not in (1, -1) or den_sign not in (1, -1):
            raise ValueError("num_sign and den_sign must be +1 or -1")
        if a1 < 1 or a0 + a1 < 1:
            raise DivergentSpec(
                f"numerator exponents must satisfy a1 >= 1 and a0+a1 >= 1 (got a0={a0}, a1={a1})"
            )
        if b1 < 0 or b0 + b1 < 1:
            raise DivergentSpec(
                f"denominator exponents must satisfy b1 >= 0 and b0+b1 >= 1 (got b0={b0}, b1={b1})"
            )
        self._set(scalar, num_sign, a0, a1, den_sign, b0, b1)


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


# A run of at least this many points, along u or along k, goes in as
# strided slices, a shorter one point by point: at order 2000 (CPython
# 3.11) slices broke even at 20-24 points for sign +1 and ~32 for -1, and
# a 1-point run took 0.3-0.5 us as a loop against 0.6-1.6 us as slices.
_RUN_SLICE_MIN = 32


def _add_slices(coeffs: list[int], p: int, step: int, stop: Optional[int], w: int, s: int) -> None:
    """Add w*s^j at p + j*step below `stop` (None: to the end): two slices for s = -1."""
    if s == 1:
        coeffs[p:stop:step] = [c + w for c in coeffs[p:stop:step]]
    else:
        coeffs[p : stop : 2 * step] = [c + w for c in coeffs[p : stop : 2 * step]]
        coeffs[p + step : stop : 2 * step] = [c - w for c in coeffs[p + step : stop : 2 * step]]


def _add_family(
    coeffs: list[int], a: int, b: int, s: int, w: int = 1, count: int = 1, da: int = 1, db: int = 0, ws: int = 1
) -> None:
    """Accumulate Sum_{k<count} w*ws^k * q^(a+k*da)/(1 - s*q^(b+k*db)) in
    place, for da >= 1 and db >= 0; a single run is a family of one.

    Term k has the points a + k*da + u*(b + k*db), u >= 0, of weight
    w*ws^k*s^u. Leads and steps grow with k, so the terms with a u-th point
    below the order are a prefix, which shrinks as u grows. The terms with
    a point u = _RUN_SLICE_MIN - 1 go in as one slice each along u. For the
    rest, the u-th points lie on one progression, (a + u*b) + k*(da + u*db),
    so each u with at least _RUN_SLICE_MIN of them is one slice along k;
    from the first u with fewer, each term is walked along u.
    """
    n = len(coeffs)
    while count > 0 and a + (_RUN_SLICE_MIN - 1) * b < n:  # a, b, w: the next term's
        _add_slices(coeffs, a, b, None, w, s)
        count, a, b, w = count - 1, a + da, b + db, w * ws
    while count >= _RUN_SLICE_MIN:  # now da = da + u*db moves the u-th point a along k
        count = min(count, -((a - n) // da))  # the terms whose u-th point is below n
        if count < _RUN_SLICE_MIN:
            break
        _add_slices(coeffs, a, da, a + count * da, w, ws)
        a, da, w = a + b, da + db, w * s
    while count > 0:  # a is the u-th point of the next term and b its step
        x, wx = a, w
        if s == 1:
            while x < n:
                coeffs[x] += wx
                x += b
        else:
            while x < n:
                coeffs[x] += wx
                wx = -wx
                x += b
        count -= 1
        if count:  # a family of one pays no step to a next term
            a, b, w = a + da, b + db, w * ws


def lambert_term(a: int, b: int, s: int, order: int) -> TruncatedSeries:
    """The single term q^a / (1 - s*q^b), expanded geometrically."""
    _check_args(order, a=a, b=b, s=s)
    if b < 1:
        raise InvalidExponent(f"denominator exponent must be >= 1, got {b}")
    if a < 0:
        raise InvalidExponent(f"numerator exponent must be >= 0, got {a}")
    if s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {s}")
    coeffs = [0] * order
    _add_family(coeffs, a, b, s)
    return TruncatedSeries._trusted(coeffs)


def lambert_sum(spec: LambertSpec, order: int) -> TruncatedSeries:
    """Expand a LambertSpec sum exactly: terms stop once q^(a0+a1*k) >= order."""
    # re-assert the invariants: construction validates, but a spec mutated
    # through object.__setattr__ skips it
    LambertSpec(spec.scalar, spec.num_sign, spec.a0, spec.a1, spec.den_sign, spec.b0, spec.b1)
    _check_args(order)
    coeffs = [0] * order
    a, b = spec.a0 + spec.a1, spec.b0 + spec.b1  # the term k = 1
    w = spec.scalar * spec.num_sign
    _add_family(coeffs, a, b, spec.den_sign, w, order, spec.a1, spec.b1, spec.num_sign)
    return TruncatedSeries._trusted(coeffs)


# Pochhammer symbols (s*q^a; q^step)_inf as (s, a, step), with multiplicity.
_Symbols = Sequence[tuple[int, int, int]]

# A block of at most this many terms is solved by direct sums, a longer
# one split in two halves joined by one `mul`. With dot-product leaves, a
# suite's eta expansions (medians, CPython 3.11, `BENCH_24.json`) were
# slower at 16 than at 32 at orders 800 and 10000 in every sweep; 64 won
# at 10000 in most sweeps but not in every one at 800.
_SOLVE_LEAF = 32


def _solve(a: list[int], known: Sequence[int] = ()) -> list[int]:
    """The series p = 1 + O(q) with q d/dq log p = a, through len(a) terms:
    n*p[n] = Sum_{j=1..n} a[j]*p[n-j], for a[0] = 0. `known` is a solved
    prefix of p, which the solve resumes from.

    Divide and conquer (relaxed multiplication; van der Hoeven, "Relax, but
    don't be too lazy", 2002): once p is known on [lo, mid), one packed
    product of that block by a[:hi-lo] adds its share of the sums on
    [mid, hi), and a block of at most `_SOLVE_LEAF` terms adds its own share
    directly, each sum one C-level dot product of a reversed slice of a with
    a slice of p. A known prefix is one such block before the rest. Each
    prefix a[:L] is packed once per slot width, the block as it is, and
    only the product's slots from mid - lo on are read. A sum that n does
    not divide means a is no log-derivative of an integer series; it raises
    ArithmeticError.
    """
    n = len(a)
    m = min(len(known), n)
    p = [*known[:m]] + [0] * (n - m) if m else [1] + [0] * (n - 1)
    sums = [0] * n  # sums[i]: Sum a[i-j]*p[j] over the j of the blocks solved before i's
    amax = list(accumulate(map(abs, a), max))  # amax[i]: max |a[:i+1]|
    packed: dict[tuple[int, int], tuple[_Packing, int]] = {}  # (L, slot bytes): a[:L] packed

    def add_share(lo: int, mid: int, hi: int) -> None:
        length, left = hi - lo, p[lo:mid]
        # as in `mul`: length*max|left|*max|a[:length]| bounds every coefficient
        bound = max(max(map(abs, left)), 1) * max(amax[length - 1], 1) * length
        key = (length, _Packing.slot_bytes(bound))
        if key not in packed:
            slots = _Packing(length, bound)
            packed[key] = slots, slots.pack(a[:length])
        slots, prefix = packed[key]
        sums[mid:hi] = map(add, sums[mid:hi], slots.digits(slots.pack(left) * prefix, mid - lo))

    def block(lo: int, hi: int) -> None:
        if hi - lo <= _SOLVE_LEAF:
            for i in range(max(lo, 1), hi):
                total = sums[i] + sum(map(operator.mul, a[i - lo : 0 : -1], p[lo:i]))
                p[i], rest = divmod(total, i)
                if rest:
                    raise ArithmeticError(f"{total} at q^{i} is not a multiple of {i}")
            return
        mid = (lo + hi) // 2
        block(lo, mid)
        add_share(lo, mid, hi)
        block(mid, hi)

    if 0 < m < n:
        add_share(0, m, n)
    block(m, n)
    return p


def _spread(const: int, coeffs: Sequence[int], g: int, order: int) -> TruncatedSeries:
    """const times the series in q^g whose first ceil(order/g) coefficients
    are `coeffs`, as a series in q (q -> q^g is a ring homomorphism)."""
    out = [0] * order
    n = -(-order // g)
    out[::g] = coeffs[:n] if const == 1 else [const * c for c in coeffs[:n]]
    return TruncatedSeries._trusted(out)


def _signature(num: _Symbols, den: _Symbols, order: int) -> tuple[int, dict[int, int]]:
    """(const, c) with Prod_num (s*q^a; q^step)_inf / Prod_den (s*q^a; q^step)_inf
    equal to const * Prod_d E(q^d)^c(d) mod q^order, E = (q;q)_inf, for
    symbols (s, a, step), s = +-1; only `num` may hold a = 0, with s = -1.

    Exact ring algebra only. Each symbol is the product of 1 - s*q^k over
    its residue class k = a, a + step, ...; (1 + q^0) = 2 goes into `const`,
    and 1 + q^k = (1 - q^(2k))/(1 - q^k), dropping 1 - q^(2k) once
    2k >= order, moves a symbol with s = -1 onto the classes a mod step and
    2a mod 2*step. That gives the exponent m(k) of each 1 - q^k. Since
    E(q^d) is the product of 1 - q^k over the multiples k of d,
    m = Sum_{d | k} c(d), so c = mu * m, found by a divisor sieve over
    d < order; E(q^d) = 1 mod q^order for d >= order.
    """
    const, m = 1, [0] * order
    for side, sign in ((num, 1), (den, -1)):
        for s, a, step in side:
            if a == 0:  # (1 + q^0), above the bar only
                const, a = 2 * const, step
            if s == 1:
                m[a::step] = [e + sign for e in m[a::step]]
            else:
                m[a::step] = [e - sign for e in m[a::step]]
                m[2 * a :: 2 * step] = [e + sign for e in m[2 * a :: 2 * step]]
    for d in range(1, (order + 1) // 2):  # m[d] is c(d) once every proper divisor is taken out
        if m[d]:
            cd = m[d]
            m[2 * d :: d] = [e - cd for e in m[2 * d :: d]]
    return const, {d: e for d, e in enumerate(m) if e}


# The run open in this context, one dict of the named series by (SeriesId,
# order) and the eta expansions by primitive signature; None outside a run.
_RUN: ContextVar[Optional[dict]] = ContextVar("lambertq_run", default=None)


@contextmanager
def _run() -> Iterator[None]:
    """Share every named series and eta-quotient expansion among the builds
    inside, unless an enclosing run shares them already. A named series is
    built once per order; an expansion is solved through what the product
    that first needs it needs, and resumed when a later one needs more."""
    if _RUN.get() is not None:
        yield
        return
    token = _RUN.set({})
    try:
        yield
    finally:
        _RUN.reset(token)


def _divisor_sums(n: int) -> list[int]:
    """sigma(j), the sum of the divisors of j, for every j < n (and
    sigma[0] = 0), by divisor pairs j = d*k, d <= k: d*d gains d, and one
    strided slice adds d + k at each d*k with d < k < n/d."""
    sigma = [0] * n
    d = 1
    while d * d < n:
        sigma[d * d] += d
        sigma[d * d + d :: d] = map(add, sigma[d * d + d :: d], range(2 * d + 1, d + (n - 1) // d + 1))
        d += 1
    return sigma


def _eta_expand(sig: tuple[tuple[int, int], ...], n: int) -> list[int]:
    """Prod_d E(q^d)^c(d) through n terms, for a signature ((d, c(d)), ...)
    ascending in d, solved from its log-derivative by `_solve`.

    q d/dq log E(q^d) = -d*Sum_{j>=1} sigma(j) q^(dj) (Euler), so the
    log-derivative is -Sum_d c(d)*d*Sum_j sigma(j) q^(dj), with sigma from
    `_divisor_sums` through n. In a run, every expansion is kept: one at
    least n long serves by its prefix, and a shorter one is resumed.
    """
    kept = _RUN.get()
    if kept is None:
        kept = {}
    known = kept.get(sig, ())
    if len(known) >= n:
        return known
    sigma = _divisor_sums(n)
    a = [0] * n
    for d, c in sig:
        w = c * d
        a[d::d] = [t - w * u for t, u in zip(a[d::d], sigma[1 : (n - 1) // d + 1])]
    kept[sig] = coeffs = _solve(a, known)
    return coeffs


def _product(num: _Symbols, den: _Symbols, order: int) -> TruncatedSeries:
    """Prod_num (s*q^a; q^step)_inf / Prod_den (s*q^a; q^step)_inf through
    q^(order-1): its signature const * Prod_d E(q^d)^c(d) is expanded in
    q^g, g = gcd(supp c), by its primitive signature c/g, then spread out."""
    const, c = _signature(num, den, order)
    g = gcd(*c) or order
    sig = tuple(sorted((d // g, e) for d, e in c.items()))
    return _spread(const, _eta_expand(sig, -(-order // g)), g, order)


def pochhammer(arg: SignedMonomial, step: int, order: int) -> TruncatedSeries:
    """The product (s*q^a; q^step)_inf = Prod_{n>=0} (1 - s*q^(a+n*step)).

    Factors whose exponent reaches the order contribute nothing mod q^order.
    """
    _check_args(order, step=step)
    _check_monomials(arg=arg)
    if step < 1:
        raise ValueError(f"Pochhammer step must be >= 1, got {step}")
    if arg.sign == 1 and arg.exponent == 0:
        raise ZeroFactor("(q^0; .)_inf contains the factor 1 - 1 = 0")
    return _product([(arg.sign, arg.exponent, step)], [], order)


def phi(order: int) -> TruncatedSeries:
    """The even quotient (q^4;q^4)_inf^4 / (q^2;q^2)_inf^2."""
    _check_args(order)
    return _product([(1, 4, 4)] * 4, [(1, 2, 2)] * 2, order)


# -- the named series ---------------------------------------------------------


# `Y_DEF` and the six double sums are summed in one packed integer, a
# `series._Packing` whose slot must hold every output coefficient; order^2
# bounds them. An index pair +-q^a/((1 -+ q^b)(1 -+ q^c)) of a display is
# Sum_{u,v>=0} +-q^(a+ub+vc), and for each u at most one v lands on q^e, so
# it puts at most floor((e-a)/M) + 1 lattice points on q^e, M = max(b, c).
# That grows with e, so take e = order-1. Without the floor the pairs of one
# display add up to less than 3/4*order^2: in A the j pairs with
# M = 2j+1 have a = j+1 and add j(e+j)/(2j+1) < (e+j)/2, and
# Sum_{j<e} (e+j)/2 < 3/4*e^2; grouped by M, the others stay below it.
# With the floor A's sum, the largest, stays below 0.62*order^2
# (tests/test_constructors.py counts every display's pairs, Y_DEF's
# included). So a slot is 3 bytes through order 2896, 4 through 46340 and
# 5 at cli.MAX_ORDER. The lists packed, a group of Y_DEF or an inner sum's
# terms, hold fewer than order runs, so their coefficients fit too.


def _sum_packing(order: int) -> _Packing:
    """The packing every double sum and `Y_DEF` is summed in."""
    return _Packing(order, order * order)


def _build_y_def(order: int) -> TruncatedSeries:
    # Sum_{m,n>=1} (-1)^m q^(2mn+m) / ((1+q^n)(1-q^(2m-1))).
    # Each (m, n) term is a geometric run along one of its two steps,
    # divided by the other factor, and division is linear: the terms that
    # share a divisor are summed first and divided once. A term goes into
    # the group of its smaller step, a tie n = 2m-1 into the group of m.
    # The group of m holds the runs along n >= 2m-1 (sign -1) and is
    # divided by 1 - q^(2m-1); the group of n holds the runs along
    # 2m-1 > n (sign +1) and is divided by 1 + q^n. Each group is one family
    # on a list from its least exponent, packed and divided once; about
    # 1.5*sqrt(order) groups exist.
    # Every term keeps its own factor 1/(1+q^n): re-indexing it into a tail
    # of q^t/(1-q^t) would turn this display into Y_EQ1's.
    p = _sum_packing(order)
    acc = 0
    m = 1
    while m * (4 * m - 1) < order:  # the tie n = 2m-1 leads the group of m
        lo = m * (4 * m - 1)
        h = [0] * (order - lo)  # the runs along n = 2m-1, 2m, ..., leading at m(2n+1) - lo
        _add_family(h, 0, 2 * m - 1, -1, -1 if m % 2 else 1, order, 2 * m, 1)
        acc += p.divide(p.pack(h), 2 * m - 1, 1, order - lo) << (p.width * lo)
        m += 1
    n = 1
    while (n + 3) // 2 * (2 * n + 1) < order:  # the least m with 2m-1 > n leads the group of n
        m = (n + 3) // 2
        lo = m * (2 * n + 1)
        h = [0] * (order - lo)  # the runs along 2m-1, 2m+1, ..., leading at m(2n+1) - lo
        _add_family(h, 0, 2 * m - 1, 1, -1 if m % 2 else 1, order, 2 * n + 1, 2, -1)
        acc += p.divide(p.pack(h), n, -1, order - lo) << (p.width * lo)
        n += 1
    return p.unpack(acc)


# A family of a double sum's display: (w, e, a0, a1, s, b0, b1, start)
# stands for the terms w*e^o*q^(a0+a1*o)/(1 - s*q^(b0+b1*o)), o >= start.
_Family = tuple[int, int, int, int, int, int, int, int]


def _split(order: int) -> int:
    """The outer index M from which `_double_sum` exchanges its
    summations: 4*order^(1/3), rounded. Swept on the packed engine
    (CPython 3.11, `BENCH_30.json`), the fastest M/sqrt(order) fell from
    about 1 at 800-10000 to 0.6-0.8 at 50000-100000; 4*order^(1/3) is
    1.3*sqrt(order) at 800 and 0.59*sqrt(order) at 100000."""
    return round(4 * order ** (1 / 3))


def _double_sum(outer: Sequence[_Family], inner: Sequence[_Family], order: int) -> TruncatedSeries:
    """Sum_o Out(o)*T(o) through q^(order-1), Out(o) the outer families'
    terms of index o and T(o) the sum of the inner families' terms of every
    index o' <= o. Weights w and bases e are +-1, and outer families start
    at 0 or 1.

    Everything is packed (`_sum_packing`): T, kept in [0, 2^(width*order)),
    and one accumulator, unpacked once. Below the split M, T gains the
    inner terms of each index in turn, each a packed geometric run, and
    each outer term is one `divide` of T, shifted to its lead. From M on, an
    outer term w*e^o*q^(a0+a1*o)/(1 - s*q^(b0+b1*o)) is expanded in u, and
    for each u its terms c(o) = w*s^u*e^o*q^(a0+u*b0 + o*d), d = a1+u*b1,
    are geometric in o. So the sum over o >= M is T(M-1)*c(M)/(1 - e*q^d),
    plus Sum_{o'>=M} F(o')*c(o')/(1 - e*q^d) for each inner family F, since
    its term of index o' meets every c(o) with o >= o': one `_add_family`
    per inner family on a list, packed and added to T, and one division
    for each u. Over c(M) that quotient depends on the outer family only
    through (e, a1, b1), which gives d, and its window, so the families
    that share them share it: it is made once, through the longest window,
    and added at each family's lead. Only the order of the finite sums
    changes.
    """
    p = _sum_packing(order)
    width, top = p.width, p.mask + 1
    split = _split(order)
    prefix = acc = 0  # T(o) for the o reached, and the sum
    for o in range(split):
        for w, e, a0, a1, s, b0, b1, start in inner:
            a = a0 + a1 * o
            if o >= start and a < order:
                run = p.divide(1, b0 + b1 * o, s, order - a) << (width * a)
                prefix = (prefix + run if w * e**o > 0 else prefix + top - run) & p.mask
        for w, e, a0, a1, s, b0, b1, start in outer:
            lead = a0 + a1 * o
            if o >= start and lead < order:
                x = p.divide(prefix, b0 + b1 * o, s, order - lead) << (width * lead)
                acc = acc + x if w * e**o > 0 else acc - x
    shared: dict[tuple[int, int, int], list[tuple[int, int, int, int]]] = {}
    for w, e, a0, a1, s, b0, b1, _ in outer:  # c(M)'s sign and lead at u = 0, and the lead's step in u
        shared.setdefault((e, a1, b1), []).append((w * e**split, s, a0 + a1 * split, b0 + b1 * split))
    for (e, a1, b1), terms in shared.items():
        u = 0
        while True:
            leads = [lead + u * step for _, _, lead, step in terms]
            d, n = a1 + u * b1, order - min(leads)  # n: the longest window
            if n <= 0:
                break
            h = [0] * n  # over c(M): F(o')*c(o') is F(o')*e^(o'-M)*q^((o'-M)*d) here
            for wf, ef, af0, af1, sf, bf0, bf1, start in inner:
                o = max(split, start)
                a, da = af0 + af1 * o + (o - split) * d, af1 + d
                if a < n:
                    w_o = wf * ef**o * e ** (o - split)
                    _add_family(h, a, bf0 + bf1 * o, sf, w_o, -((a - n) // da), da, bf1, e * ef)
            x = p.divide(p.pack(h) + prefix, d, e, n)
            for (sign, s, _, _), lead in zip(terms, leads):
                if lead < order:  # slots shifted past the order drop out of acc's residue
                    y = x << (width * lead)
                    acc = acc + y if sign * s**u > 0 else acc - y
            u += 1
    return p.unpack(acc)


# Each double sum as (outer, inner) families of its own display, summed
# over the inner index first and oriented so that the outer index o bounds
# it. `_double_sum` exchanges the two sums from its split on.
_DOUBLE_SUMS: dict[SeriesId, tuple[tuple[_Family, ...], tuple[_Family, ...]]] = {
    # Sum_{m>=1,k>=0} (-1)^(m+k) q^(3m+k) / ((1-q^(2m-1))(1-q^(2m+k))).
    # With j = 2m+k, (-1)^k = (-1)^j and the term is
    # (-1)^j q^j/(1-q^j) * (-1)^m q^m/(1-q^(2m-1)), 1 <= m <= j/2. Summed
    # with m inside, j = 2o and j = 2o+1 outside for o >= 1, and m <= o.
    SeriesId.Y_EQ1: (
        ((1, 1, 0, 2, 1, 0, 2, 1), (-1, 1, 1, 2, 1, 1, 2, 1)),
        ((1, -1, 0, 1, 1, -1, 2, 1),),
    ),
    # -Sum_{k>=2} q^k/(1+q^(2k-1)) * Sum_{n=1}^{k-1} q^n/(1+q^n): k = o+1
    # outside and n <= o inside.
    SeriesId.Y_EQ2: (
        ((-1, 1, 1, 1, -1, 1, 2, 1),),
        ((1, 1, 0, 1, -1, 0, 1, 1),),
    ),
    # Sum_{m>=1} (-1)^m q^m/(1-q^(2m-1)) * Sum_{k=1}^{2m-1} (-1)^k q^k/(1-q^k):
    # m = o outside, and the inner terms k = 2o-1 and, for o >= 2,
    # k = 2o-2 are the ones k <= 2m-1 first admits at m = o.
    SeriesId.Z: (
        ((1, -1, 0, 1, 1, -1, 2, 1),),
        ((-1, 1, -1, 2, 1, -1, 2, 1), (1, 1, -2, 2, 1, -2, 2, 2)),
    ),
    # Sum_{i>=0} Sum_{j>i} q^(j+1)/((1+q^(2i+1))(1+q^(2j+1))), summed with
    # i < j inside: j = o >= 1 outside, and the term i = o-1 enters at o.
    SeriesId.A: (
        ((1, 1, 1, 1, -1, 1, 2, 1),),
        ((1, 1, 0, 0, -1, -1, 2, 1),),
    ),
    # Sum_{i>=0} Sum_{j>i} q^(i+2j+2)/((1+q^(2i+1))(1+q^(2j+1))), summed
    # with i < j inside: j = o >= 1 outside with q^(2j+2), and the term
    # i = o-1 enters at o with q^i.
    SeriesId.B: (
        ((1, 1, 2, 2, -1, 1, 2, 1),),
        ((1, 1, -1, 1, -1, -1, 2, 1),),
    ),
    # Sum_{i>=0} Sum_{j<=i} q^(i+2j+2)/((1+q^(2i+1))(1+q^(2j+1))), summed
    # with j <= i inside: i = o outside with q^i, and the term j = o enters
    # at o with q^(2j+2).
    SeriesId.B1: (
        ((1, 1, 0, 1, -1, 1, 2, 0),),
        ((1, 1, 2, 2, -1, 1, 2, 0),),
    ),
}


def _build_product(f: SeriesId, g: SeriesId, order: int) -> TruncatedSeries:
    return mul(named_series(f, order), named_series(g, order))


def d2_split_product(order: int) -> TruncatedSeries:
    """D2 via its other product display:

        (Sum_{i>=0} q^i/(1+q^(2i+1))) * (Sum_{j>=0} q^(2j+2)/(1+q^(2j+1))).
    """
    _check_args(order)
    left, right = [0] * order, [0] * order
    _add_family(left, 0, 1, -1, 1, order, 1, 2)
    _add_family(right, 2, 1, -1, 1, order, 2, 2)
    return mul(TruncatedSeries._trusted(left), TruncatedSeries._trusted(right))


_BUILDERS: dict[SeriesId, Callable[[int], TruncatedSeries]] = {
    SeriesId.Y_DEF: _build_y_def,
    **{sid: partial(_double_sum, *row) for sid, row in _DOUBLE_SUMS.items()},
    SeriesId.D1: partial(_build_product, SeriesId.S, SeriesId.L1),
    SeriesId.D2: partial(_build_product, SeriesId.S, SeriesId.L2),
    SeriesId.S: partial(lambert_sum, S_SPEC),
    SeriesId.L1: partial(lambert_sum, L1_SPEC),
    SeriesId.L2: partial(lambert_sum, L2_SPEC),
    SeriesId.L3: partial(lambert_sum, L3_SPEC),
    SeriesId.PHI: phi,
}


def named_series(sid: SeriesId, order: int) -> TruncatedSeries:
    """Build any named series exactly through q^(order-1), once per run (`_run`)."""
    if not isinstance(sid, SeriesId):
        raise UnsupportedSeries(f"named series are {[s.value for s in SeriesId]}, not {sid!r}")
    _check_args(order)
    kept = _RUN.get()
    if kept is None:
        return _BUILDERS[sid](order)
    if (sid, order) not in kept:
        kept[sid, order] = _BUILDERS[sid](order)
    return kept[sid, order]


# -- bilateral machinery --------------------------------------------------------


def _check_bilateral_bounds(x: SignedMonomial, y: SignedMonomial, base: int) -> None:
    _check_monomials(x=x, y=y)
    if base < 2:
        raise ParameterOutOfRange(f"base must be >= 2, got {base}")
    for name, e in (("x", x.exponent), ("y", y.exponent)):
        if not 1 <= e <= base - 1:
            raise ParameterOutOfRange(f"{name} exponent must lie in [1, base-1] = [1, {base - 1}], got {e}")
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
    _check_args(order, base=base)
    _check_bilateral_bounds(x, y, base)
    coeffs = [0] * order
    sx, ex = x.sign, x.exponent
    sy, ey = y.sign, y.exponent
    # n >= 0: s_x^n q^(n*e_x) / (1 - s_y q^(e_y + n*base))
    _add_family(coeffs, 0, ey, sy, 1, order, ex, base, sx)
    # n = -m <= -1: x^(-m)/(1 - y*Q^(-m)) = -(s_x q^(-e_x))^m * y^(-1)Q^m/(1 - y^(-1)Q^m)
    #                                     = -s_x^m s_y q^(m(base-e_x)-e_y) / (1 - s_y q^(m*base-e_y))
    _add_family(coeffs, base - ex - ey, base - ey, sy, -sx * sy, order, base - ex, base, sx)
    return TruncatedSeries._trusted(coeffs)


def entry29_rhs(x: SignedMonomial, y: SignedMonomial, base: int, order: int) -> TruncatedSeries:
    """The closed product form matching bilateral_sum:

        (Q; Q)^2 (xy; Q) (Q/xy; Q)  /  [(x; Q)(Q/x; Q)(y; Q)(Q/y; Q)]

    all Pochhammer symbols with step = base, x and y signed monomials.
    """
    _check_args(order, base=base)
    _check_bilateral_bounds(x, y, base)
    if x.exponent + y.exponent == base and x.sign * y.sign == 1:
        raise ZeroFactor(
            "the (Q/xy; Q) factor starts 1 - q^0 = 0 when "
            "x.exponent + y.exponent = base with x.sign*y.sign = +1"
        )
    return _product(*_entry29_symbols(x, y, base), order)


def _entry29_symbols(x: SignedMonomial, y: SignedMonomial, base: int) -> tuple[_Symbols, _Symbols]:
    """The Pochhammer symbols of `entry29_rhs` above and below the bar."""
    sx, ex = x.sign, x.exponent
    sy, ey = y.sign, y.exponent
    sxy = sx * sy
    num = [(1, base), (1, base), (sxy, ex + ey), (sxy, base - ex - ey)]
    den = [(sx, ex), (sx, base - ex), (sy, ey), (sy, base - ey)]
    return [(s, a, base) for s, a in num], [(s, a, base) for s, a in den]


def _add_s_terms(coeffs: list[int], lo: int, hi: int, w: int = 1) -> None:
    """Accumulate w times the terms (-1)^m q^m/(1 - q^(2m-1)) of the
    bilateral S sum for integer m in [lo, hi], as at most two families. A
    term m <= 0 has a negative denominator exponent, so it is first rewritten
    as the honest power series -(-1)^m q^(1-m)/(1 - q^(1-2m)); those go in
    by j = -m."""
    if hi >= 1:
        m = lo if lo >= 1 else 1
        _add_family(coeffs, m, 2 * m - 1, 1, -w if m % 2 else w, hi - m + 1, 1, 2, -1)
    if lo <= 0:
        j = -hi if hi <= 0 else 0
        _add_family(coeffs, 1 + j, 1 + 2 * j, 1, w if j % 2 else -w, 1 - lo - j, 1, 2, -1)


def s_window(lo: int, hi: int, order: int) -> TruncatedSeries:
    """Partial sum of (-1)^m q^m / (1 - q^(2m-1)) over integer m in [lo, hi].

    The full bilateral sum is the limit lo -> -inf, hi -> +inf.
    """
    _check_args(order, lo=lo, hi=hi)
    if lo > hi:
        raise ValueError(f"empty window: lo={lo} > hi={hi}")
    coeffs = [0] * order
    _add_s_terms(coeffs, lo, hi)
    return TruncatedSeries._trusted(coeffs)


def _halving_lists(count: int, order: int) -> Iterator[tuple[list[int], list[int]]]:
    """The two running coefficient lists of `halving_windows`, unchecked and
    live: after window m they hold s_window(1 - m, m, order) and
    2 * s_window(1, m, order), and the next step changes them in place."""
    full = [0] * order
    twice = [0] * order
    for m in range(1, count + 1):
        _add_s_terms(full, 1 - m, 1 - m)
        _add_s_terms(full, m, m)
        _add_s_terms(twice, m, m, 2)
        yield full, twice


def halving_windows(count: int, order: int) -> Iterator[tuple[TruncatedSeries, TruncatedSeries]]:
    """The pairs (s_window(1 - m, m, order), 2 * s_window(1, m, order)) for
    m = 1..count, the two sides of the halving identity.

    Both grow as running sums: each step adds the terms 1 - m and m to the
    first and twice the term m to the second, so no window is scaled. The
    arguments are checked when it is called, not at the first pair.
    """
    _check_args(order, count=count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return (
        (TruncatedSeries._trusted(full), TruncatedSeries._trusted(twice))
        for full, twice in _halving_lists(count, order)
    )
