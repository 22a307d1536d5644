"""Constructor tests against hand-expanded vectors and independent re-summation."""

import random
import re
from collections import Counter
from math import gcd
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertq import (
    ENTRY29_TRIPLES,
    DivergentSpec,
    IdentityId,
    InvalidExponent,
    L1_SPEC,
    L2_SPEC,
    L3_SPEC,
    LambertSpec,
    OrderTooSmall,
    ParameterOutOfRange,
    S_SPEC,
    SeriesId,
    SignedMonomial,
    TruncatedSeries,
    UnsupportedSeries,
    ZeroFactor,
    bilateral_sum,
    check_identity,
    d2_split_product,
    entry29_rhs,
    halving_windows,
    lambert_sum,
    lambert_term,
    mul,
    named_series,
    phi,
    pochhammer,
    run_suite,
    s_window,
)
from lambertq import constructors, series
from lambertq.harness import MAX_HALVING_WINDOW
from lambertq.oracle import oracle_expand
from references import (
    PHI_SYMBOLS,
    bilateral_by_pairs,
    euler_by_pentagonal,
    factor_route,
    factors,
    geometric_mul_inplace,
    log_derivative,
    oracle_partition_count,
    oracle_partitions,
    symbol_route,
)

Q = SignedMonomial(1, 1)
Q2 = SignedMonomial(1, 2)

# Expanded by hand from the defining sums (k by k, then geometric tails).
L1_12 = [0, -1, 0, -2, 1, -2, 0, -2, 2, -3, 0, -2]
L2_12 = [0, -1, 1, -2, 1, -2, 2, -2, 1, -3, 2, -2]
L3_12 = [0, 0, 1, 0, 0, 0, 2, 0, -1, 0, 2, 0]
S_12 = [0, -1, 0, -2, 0, -1, 0, -2, 0, -2, 0, 0]
PHI_16 = [1, 0, 2, 0, 1, 0, 2, 0, 2, 0, 0, 0, 3, 0, 2, 0]
EULER_8 = [1, -1, -1, 0, 0, 1, 0, 1]
D1_10 = [0, 0, 1, 0, 4, -1, 7, -2, 10, -3]
D2_12 = [0, 0, 1, -1, 4, -3, 7, -5, 10, -8, 15, -10]


def pochhammer_by_loop(arg, step, order):
    """Reference (s*q^a; q^step)_inf: the per-element loop that the
    slice-based `pochhammer` replaced, one binomial factor at a time."""
    coeffs = [1] + [0] * (order - 1)
    e = arg.exponent
    while e < order:
        if e == 0:  # s = -1: the constant factor 1 + 1
            coeffs = [2 * c for c in coeffs]
        else:
            for i in range(order - 1, e - 1, -1):
                coeffs[i] -= arg.sign * coeffs[i - e]
        e += step
    return TruncatedSeries(coeffs)


def phi_by_inversion(order):
    """Reference PHI: the numerator times the inverted denominator product."""
    p4 = pochhammer_by_loop(SignedMonomial(1, 4), 4, order)
    p2 = pochhammer_by_loop(SignedMonomial(1, 2), 2, order)
    return mul(mul(mul(p4, p4), mul(p4, p4)), mul(p2, p2).invert())


def _entry29_symbols(x, y, base):
    """(sign, exponent) of the four numerator and four denominator symbols."""
    sxy, exy = x.sign * y.sign, x.exponent + y.exponent
    num = [(1, base), (1, base), (sxy, exy), (sxy, base - exy)]
    den = [(x.sign, x.exponent), (x.sign, base - x.exponent)]
    den += [(y.sign, y.exponent), (y.sign, base - y.exponent)]
    return num, den


def entry29_rhs_by_inversion(x, y, base, order):
    """Reference product form: all eight Pochhammer symbols built, the
    denominator multiplied out and inverted."""

    def poch(sign, exponent):
        return pochhammer_by_loop(SignedMonomial(sign, exponent), base, order)

    num, den = _entry29_symbols(x, y, base)
    num = mul(mul(poch(*num[0]), poch(*num[1])), mul(poch(*num[2]), poch(*num[3])))
    den = mul(mul(poch(*den[0]), poch(*den[1])), mul(poch(*den[2]), poch(*den[3])))
    return mul(num, den.invert())


def entry29_rhs_uncancelled(x, y, base, order):
    """Reference product form without cancellation: the four numerator
    symbols multiplied out, then divided by every binomial factor of the
    four denominator symbols. It runs on the package's `pochhammer` and
    `geometric_mul_inplace`, which the loop references check, so it is
    cheap enough for order 2000, where inverting is not."""
    num, den = _entry29_symbols(x, y, base)
    factors = [pochhammer(SignedMonomial(sign, e), base, order) for sign, e in num]
    coeffs = list(mul(mul(factors[0], factors[1]), mul(factors[2], factors[3])).coefficients)
    for sign, e in den:
        for k in range(e, order, base):
            geometric_mul_inplace(coeffs, k, sign)
    return TruncatedSeries(coeffs)


# Admissible triples beyond ENTRY29_TRIPLES, each with what its product side
# builds at order 40: an eta quotient's (const, {d: c(d)}), the product
# const * Prod_d E(q^d)^c(d), E = (q;q)_inf; or None for a wide signature,
# which is solved from its log-derivative.
MORE_TRIPLES = {
    # (q, q^2, 4) swapped: y's pair cancels, leaving (Q;Q)^2/(q^2;Q)^2 = PHI
    (SignedMonomial(1, 2), Q, 4): (1, {2: -2, 4: 4}),
    # base = 2*x.exponent + y.exponent with y.sign = +1: x's pair cancels,
    # leaving (Q;Q)^2/((q;Q)(q^2;Q)) = E(q^3)^3/E(q), the 3-core product
    (SignedMonomial(-1, 1), Q, 3): (1, {1: -1, 3: 3}),
    # (Q;Q)^2/((q^3;Q)(q^4;Q)) with Q = q^7: c has 24 d below 40, most not
    # dividing 14
    (SignedMonomial(1, 2), SignedMonomial(1, 3), 7): None,
    # (-q, q, 3) swapped
    (Q, SignedMonomial(-1, 1), 3): (1, {1: -1, 3: 3}),
    # exponents as in (q, q, 3), but the signs keep every factor
    (SignedMonomial(-1, 1), SignedMonomial(-1, 1), 3): (1, {1: 3, 2: -2, 3: -1, 6: 2}),
    # (Q/xy; Q) = (-1; Q) gives the constant 2; then (Q;Q)^2 (-Q;Q)^2 pairs
    # into (q^10;q^10)^2 and the denominator into (q^4;q^10)(q^6;q^10)
    (SignedMonomial(-1, 2), SignedMonomial(1, 3), 5): None,
}

# the eta rows, each with the id of its place among all the rows
BUILT_AT_40 = [
    pytest.param(*row, id=f"x{i}-y{i}-{row[2]}-built{i}")
    for i, row in enumerate(
        [
            # 2 (q^4;q^4)^2/(q^2;q^4)^2 = 2 E(q^4)^4/E(q^2)^2: 2*PHI
            (*ENTRY29_TRIPLES[0], (2, {2: -2, 4: 4})),
            # (Q;Q)^2 / ((q;Q)(q^2;Q)) = E(q^3)^3/E(q)
            (*ENTRY29_TRIPLES[2], (1, {1: -1, 3: 3})),
            # (Q;Q)^2 / (q^2;Q)^2 with Q = q^4, PHI again
            (*ENTRY29_TRIPLES[5], (1, {2: -2, 4: 4})),
            *((*t, form) for t, form in MORE_TRIPLES.items()),
        ]
    )
    if row[3] is not None
]

# every product the suite builds, as (const, c)
SUITE_SIGNATURES = [
    (*ENTRY29_TRIPLES[0], (2, {2: -2, 4: 4})),
    (*ENTRY29_TRIPLES[1], (2, {2: -2, 4: 4})),
    (*ENTRY29_TRIPLES[2], (1, {1: -1, 3: 3})),
    (*ENTRY29_TRIPLES[3], (2, {2: -1, 6: 3})),
    (*ENTRY29_TRIPLES[4], (1, {1: -2, 2: 4})),
    (*ENTRY29_TRIPLES[5], (1, {2: -2, 4: 4})),
    (*ENTRY29_TRIPLES[6], (2, {4: -2, 8: 4})),
]

# (q^2, q^3, 7) and (q, q^2, 5): wide signatures, with about a thousand d in
# the support of c at order 2000
WIDE_TRIPLES = [(Q2, SignedMonomial(1, 3), 7), (Q, Q2, 5)]


def quotient_by_factors(num, den, order):
    """Reference quotient of binomial factors (s, k): multiply by each
    numerator factor (1 - s*q^k), then divide by each denominator factor,
    one factor and one coefficient at a time."""
    coeffs = [1] + [0] * (order - 1)
    for s, k in num.elements():
        if k == 0:  # s = -1: the constant factor 1 + 1
            coeffs = [2 * c for c in coeffs]
            continue
        for i in range(order - 1, k - 1, -1):
            coeffs[i] -= s * coeffs[i - k]
    for s, k in den.elements():
        for i in range(k, order):
            coeffs[i] += s * coeffs[i - k]
    return TruncatedSeries(coeffs)


# Factor multisets for the solver, multiplicities 0-5 on each side; each
# order keeps the factors below it.
QUOTIENT_CASES = {
    "odd": (
        Counter({(1, 1): 3, (-1, 2): 1, (1, 3): 5, (-1, 5): 1}),
        Counter({(-1, 1): 1, (1, 4): 3, (1, 6): 5}),
    ),
    "even": (
        Counter({(1, 2): 2, (-1, 3): 4, (1, 7): 2}),
        Counter({(1, 1): 2, (-1, 1): 4, (1, 5): 2}),
    ),
    "mixed": (
        Counter({(1, 1): 5, (-1, 1): 4, (1, 2): 2, (-1, 4): 0, (1, 6): 1}),
        Counter({(1, 3): 3, (-1, 2): 2, (-1, 5): 1, (1, 8): 0}),
    ),
    "constant-2": (
        Counter({(-1, 0): 3, (1, 1): 2, (-1, 2): 1}),
        Counter({(1, 2): 2, (-1, 3): 5}),
    ),
    "constant-2-squared": (
        Counter({(-1, 0): 2, (-1, 1): 2, (1, 3): 4}),
        Counter({(1, 1): 2}),
    ),
    "empty-numerator": (Counter(), Counter({(1, 1): 2, (-1, 2): 5, (1, 3): 1})),
    # whole symbols: (q;q)^2 (-q^2;q^2)^3 / ((q;q^2)^5 (-q^3;q^3)^4)
    "symbols": (
        factors([(1, 1, 1)] * 2 + [(-1, 2, 2)] * 3, 300),
        factors([(1, 1, 2)] * 5 + [(-1, 3, 3)] * 4, 300),
    ),
}


def admissible_triples(max_base):
    """Every (x, y, base) with base <= max_base that passes the bounds and
    has no zero factor."""
    return [
        (SignedMonomial(sx, ex), SignedMonomial(sy, ey), base)
        for base in range(2, max_base + 1)
        for ex in range(1, base)
        for ey in range(1, base - ex + 1)
        for sx in (1, -1)
        for sy in (1, -1)
        if not (ex + ey == base and sx * sy == 1)
    ]


# -- reference builders ---------------------------------------------------------
# The list-based double-sum builders the six were first built by, kept as
# differential references: every slice is a pure-Python pass over a
# coefficient list.


def add_geometric(coeffs, a, b, s, weight=1):
    """Accumulate weight * q^a/(1 - s*q^b) into a coefficient list."""
    e = a
    while e < len(coeffs):
        coeffs[e] += weight
        weight *= s
        e += b


def add_family_by_terms(coeffs, a, b, s, w=1, count=1, da=1, db=0, ws=1):
    """Accumulate Sum_{k<count} w*ws^k * q^(a+k*da)/(1 - s*q^(b+k*db)) term
    by term."""
    for k in range(count):
        if a + k * da >= len(coeffs):
            break
        add_geometric(coeffs, a + k * da, b + k * db, s, w * ws**k)


def family_paths(n, a, b, s, w, count, da, db, ws):
    """How a family's points are laid out below q^n, by sign: ("u", s) for
    a term with a run of at least `_RUN_SLICE_MIN` points along u;
    ("k0", ws) and ("k", ws) for a u = 0 and a u > 0 with at least that many
    of the other terms' u-th points; ("shrink", ws) for a u past 0 that has
    fewer such points than the u before and still enough; ("walk", s) for
    the rest."""
    k = constructors._RUN_SLICE_MIN
    runs = [len(range(a + j * da, n, b + j * db)) for j in range(count) if a + j * da < n]
    short = [r for r in runs if r < k]
    paths = {("u", s)} if len(short) < len(runs) else set()
    counts = [sum(r > u for r in short) for u in range(k)]
    sliced = [c for c in counts if c >= k]  # a prefix: the counts never grow
    if sliced:
        paths.add(("k0", ws))
    if len(sliced) > 1:
        paths.add(("k", ws))
    if len(set(sliced)) > 1:
        paths.add(("shrink", ws))
    if any(r > len(sliced) for r in short):
        paths.add(("walk", s))
    return paths


def add_slice(out, h, lo, sign):
    """out[lo:] += sign * h[lo:]."""
    out[lo:] = [a + sign * b for a, b in zip(out[lo:], h[lo:])]


def y_eq1_by_lists(order):
    # Sum_{m>=1,k>=0} (-1)^(m+k) q^(3m+k) / ((1-q^(2m-1))(1-q^(2m+k)))
    out = [0] * order
    m = 1
    while 3 * m < order:
        g = [0] * order
        k = 0
        while 3 * m + k < order:
            add_geometric(g, 3 * m + k, 2 * m + k, 1, -1 if k % 2 else 1)
            k += 1
        geometric_mul_inplace(g, 2 * m - 1, 1)
        add_slice(out, g, 3 * m, -1 if m % 2 else 1)
        m += 1
    return out


def y_eq2_by_lists(order):
    # -Sum_{k>=2} q^k/(1+q^(2k-1)) * Sum_{n=1}^{k-1} q^n/(1+q^n)
    out = [0] * order
    inner = [0] * order
    for k in range(2, order - 1):
        add_geometric(inner, k - 1, k - 1, -1)
        e, sign = k, -1
        while e + 1 < order:
            add_slice(out, [0] * e + inner[: order - e], e, sign)
            e += 2 * k - 1
            sign = -sign
    return out


def z_by_lists(order):
    # Sum_{m>=1} (-1)^m q^m/(1-q^(2m-1)) * Sum_{k=1}^{2m-1} (-1)^k q^k/(1-q^k)
    out = [0] * order
    inner = [0] * order
    for m in range(1, order - 1):
        for k in (2 * m - 2, 2 * m - 1):
            if 1 <= k < order:
                add_geometric(inner, k, k, 1, -1 if k % 2 else 1)
        e = m
        while e + 1 < order:
            add_slice(out, [0] * e + inner[: order - e], e, -1 if m % 2 else 1)
            e += 2 * m - 1
    return out


def a_by_lists(order):
    # Sum_{i>=0} Sum_{j>i} q^(j+1)/((1+q^(2i+1))(1+q^(2j+1)))
    out = [0] * order
    tail = [0] * order
    for i in range(order - 3, -1, -1):
        add_geometric(tail, i + 2, 2 * i + 3, -1)
        h = tail[i + 2 :]  # the tail is zero below q^(i+2), and so is its quotient
        geometric_mul_inplace(h, 2 * i + 1, -1)
        out[i + 2 :] = map(add, out[i + 2 :], h)
    return out


def b_by_lists(order):
    # Sum_{i>=0} Sum_{j>i} q^(i+2j+2)/((1+q^(2i+1))(1+q^(2j+1)))
    out = [0] * order
    tail = [0] * order
    j = (order - 3) // 2
    for i in range((order - 5) // 3, -1, -1):
        while j > i:
            add_geometric(tail, 2 * j + 2, 2 * j + 1, -1)
            j -= 1
        h = tail.copy()
        geometric_mul_inplace(h, 2 * i + 1, -1)
        add_slice(out, [0] * i + h[: order - i], i, 1)
    return out


def b1_by_lists(order):
    # Sum_{i>=0} Sum_{j<=i} q^(i+2j+2)/((1+q^(2i+1))(1+q^(2j+1)))
    out = [0] * order
    inner = [0] * order
    for i in range(order - 2):
        if 2 * i + 2 < order:
            add_geometric(inner, 2 * i + 2, 2 * i + 1, -1)
        h = inner[: order - i]  # the quotient's prefix is the prefix's quotient
        geometric_mul_inplace(h, 2 * i + 1, -1)
        out[i:] = map(add, out[i:], h)
    return out


def y_def_by_lists(order):
    # Sum_{m,n>=1} (-1)^m q^(2mn+m) / ((1+q^n)(1-q^(2m-1))), the builder
    # before its m-slices started at q^(3m): full-length slices, one
    # alternating run per (m, n) term
    out = [0] * order
    m = 1
    while 3 * m < order:
        h = [0] * order
        n = 1
        while 2 * m * n + m < order:
            add_geometric(h, 2 * m * n + m, n, -1)
            n += 1
        geometric_mul_inplace(h, 2 * m - 1, 1)
        add_slice(out, h, 3 * m, -1 if m % 2 else 1)
        m += 1
    return out


def y_def_by_slices(order):
    # the builder before its terms were grouped by their smaller step: one
    # m-slice from q^(3m) per m, each divided by 1 - q^(2m-1) and combined
    out = [0] * order
    m = 1
    while 3 * m < order:
        lo = 3 * m
        h = [0] * (order - lo)
        n = 1
        while 2 * m * n + m < order:
            add_geometric(h, 2 * m * (n - 1), n, -1)
            n += 1
        geometric_mul_inplace(h, 2 * m - 1, 1)
        out[lo:] = map(sub if m % 2 else add, out[lo:], h)
        m += 1
    return out


def y_def_group_leads(top):
    """The least exponent of every `Y_DEF` group up to `top`: m(4m-1) for
    the group of m (the tie n = 2m-1) and m(2n+1) for the group of n, m the
    least index with 2m-1 > n."""
    leads = {m * (4 * m - 1) for m in range(1, top)}
    leads |= {(n + 3) // 2 * (2 * n + 1) for n in range(1, top)}
    return sorted(lead for lead in leads if lead <= top)


LIST_REFERENCES = {
    SeriesId.Y_EQ1: y_eq1_by_lists,
    SeriesId.Y_EQ2: y_eq2_by_lists,
    SeriesId.Z: z_by_lists,
    SeriesId.A: a_by_lists,
    SeriesId.B: b_by_lists,
    SeriesId.B1: b1_by_lists,
}


class TestSignedMonomial:
    def test_str(self):
        assert str(SignedMonomial(1, 1)) == "+q"
        assert str(SignedMonomial(-1, 2)) == "-q^2"
        assert str(SignedMonomial(1, 0)) == "+1"

    def test_validation(self):
        with pytest.raises(ValueError):
            SignedMonomial(2, 1)
        with pytest.raises(InvalidExponent):
            SignedMonomial(1, -1)

    @pytest.mark.parametrize(
        "sign,exponent", [(1.0, 1), (1, 2.0), ("1", 1), (True, 1), (-1, True), (1, False)]
    )
    def test_non_int_rejected(self, sign, exponent):
        # built series take their coefficients from the sign unchecked
        name, value = ("sign", sign) if type(sign) is not int else ("exponent", exponent)
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
            SignedMonomial(sign, exponent)


class TestLambertTerm:
    def test_geometric_numerator_one(self):
        assert list(lambert_term(1, 1, 1, 5)) == [0, 1, 1, 1, 1]

    def test_negative_denominator_sign(self):
        f = lambert_term(2, 3, -1, 10)
        assert list(f) == [0, 0, 1, 0, 0, -1, 0, 0, 1, 0]

    def test_numerator_past_order_is_zero(self):
        assert lambert_term(12, 1, 1, 5) == TruncatedSeries.zero(5)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 50, 301])
    def test_add_geometric_matches_term_by_term(self, n):
        # each run a family of one: every a in 0..n+2 and b in 1..n+1 covers
        # every run length from 0 to n, so both sides of the loop/slice
        # crossover are met; the runs of one (a, s, weight) share one list
        rng = random.Random(n)
        base = [rng.randint(-5, 5) for _ in range(n)]
        k = constructors._RUN_SLICE_MIN
        lengths = {len(range(a, n, b)) for a in range(n + 3) for b in range(1, n + 2)}
        for a in range(n + 3):
            for s in (1, -1):
                for weight in (1, -1, 3, -(2**70)):
                    expected, got = base[:], base[:]
                    for b in range(1, n + 2):
                        add_geometric(expected, a, b, s, weight)
                        constructors._add_family(got, a, b, s, weight)
                    assert got == expected, (n, a, s, weight)
        if n > k:
            assert {k - 1, k, k + 1} <= lengths

    @pytest.mark.parametrize("seed", range(4))
    def test_families_match_term_by_term(self, seed):
        rng = random.Random(seed)
        k = constructors._RUN_SLICE_MIN
        met = Counter()
        for _ in range(400):
            n = rng.choice([1, 2, k - 1, 2 * k, 300, 1000])
            count = rng.choice([0, 1, 2, k - 1, k, k + 1, 3 * k, n, n + 5])
            da, db = rng.choice([1, 1, 2, 3, 7]), rng.choice([0, 0, 1, 2, 5])
            b = rng.choice([1, 2, 3, n // k, n // k + 1, n // 4, n]) or 1
            a = rng.choice([0, 1, rng.randrange(n), n - 1, n, n + 1])
            s, ws = rng.choice([1, -1]), rng.choice([1, -1])
            w = rng.choice([1, -1, 3, 2**70, -(2**70)])
            family = (a, b, s, w, count, da, db, ws)
            met.update(family_paths(n, *family))
            base = [rng.randint(-5, 5) for _ in range(n)]
            expected, got = base[:], base[:]
            add_family_by_terms(expected, *family)
            constructors._add_family(got, *family)
            assert got == expected, (n, family)
        # runs along u, slices along k at u = 0 and past it, a shrinking
        # count among them, and point-by-point walks, for both signs
        assert len(met) == 10 and min(met.values()) >= 3, met

    def test_validation(self):
        with pytest.raises(InvalidExponent):
            lambert_term(1, 0, 1, 5)
        with pytest.raises(InvalidExponent):
            lambert_term(-1, 1, 1, 5)
        with pytest.raises(ValueError):
            lambert_term(1, 1, 0, 5)


class TestLambertSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a0=0, a1=0, b0=0, b1=1),  # constant numerator exponent
            dict(a0=-1, a1=1, b0=0, b1=1),  # k=1 numerator at q^0
            dict(a0=0, a1=1, b0=0, b1=0),  # denominator exponent 0
            dict(a0=0, a1=1, b0=1, b1=-1),  # shrinking denominator
        ],
    )
    def test_divergent_rejected(self, kwargs):
        with pytest.raises(DivergentSpec):
            LambertSpec(scalar=1, num_sign=1, den_sign=1, **kwargs)

    def test_negative_b0_allowed_when_cleared_by_b1(self):
        # the S window needs b0 = -1 with b1 = 2
        spec = LambertSpec(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=-1, b1=2)
        assert spec == S_SPEC

    def test_replace_revalidates(self):
        # S_SPEC rebuilt from its own fields with a1 = 0 is validated afresh
        s = S_SPEC
        with pytest.raises(DivergentSpec):
            LambertSpec(s.scalar, s.num_sign, s.a0, 0, s.den_sign, s.b0, s.b1)

    def test_lambert_sum_rejects_a_spec_mutated_past_validation(self):
        spec = LambertSpec(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=-1, b1=2)
        object.__setattr__(spec, "a0", -1)  # writes the slot past the record's guard
        with pytest.raises(DivergentSpec):
            lambert_sum(spec, 10)

    def test_sign_fields_validated(self):
        with pytest.raises(ValueError):
            LambertSpec(scalar=1, num_sign=0, a0=0, a1=1, den_sign=1, b0=0, b1=1)

    @pytest.mark.parametrize("field", ["scalar", "num_sign", "a0", "b1"])
    def test_non_int_fields_rejected(self, field):
        kwargs = dict(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=0, b1=1)
        # True is the valid value 1 in every field but its type
        for value in (float(kwargs[field]), True):
            with pytest.raises(TypeError, match=f"^{field} must be an int, got {value!r}$"):
                LambertSpec(**{**kwargs, field: value})


class TestLambertSum:
    @pytest.mark.parametrize(
        "spec,expected",
        [(L1_SPEC, L1_12), (L2_SPEC, L2_12), (L3_SPEC, L3_12), (S_SPEC, S_12)],
    )
    def test_named_specs(self, spec, expected):
        assert list(lambert_sum(spec, 12)) == expected

    @given(
        scalar=st.integers(min_value=-3, max_value=3),
        num_sign=st.sampled_from([1, -1]),
        a0=st.integers(min_value=0, max_value=3),
        a1=st.integers(min_value=1, max_value=3),
        den_sign=st.sampled_from([1, -1]),
        b1=st.integers(min_value=0, max_value=2),
        b0_offset=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80)
    def test_matches_direct_double_sum(self, scalar, num_sign, a0, a1, den_sign, b1, b0_offset):
        """Re-expand term by term with nothing but integer loops."""
        b0 = 1 - b1 + b0_offset
        spec = LambertSpec(scalar, num_sign, a0, a1, den_sign, b0, b1)
        order = 40
        expected = [0] * order
        k = 1
        while a0 + a1 * k < order:
            top = a0 + a1 * k
            step = b0 + b1 * k
            j = 0
            while top + j * step < order:
                expected[top + j * step] += scalar * num_sign**k * den_sign**j
                j += 1
            k += 1
        assert list(lambert_sum(spec, order)) == expected


class TestPochhammer:
    def test_euler_function(self):
        assert list(pochhammer(Q, 1, 8)) == EULER_8

    @pytest.mark.parametrize("base", [1, 2, 3, 4, 5])
    def test_matches_loop_reference(self, base):
        # every exponent 0..5 with both signs, except the zero factor (q^0; .)
        args = [SignedMonomial(s, e) for s in (1, -1) for e in range(6) if (s, e) != (1, 0)]
        for arg in args:
            for order in [*range(1, 41), 1000]:
                expected = pochhammer_by_loop(arg, base, order)
                assert pochhammer(arg, base, order) == expected, (arg, order)

    def test_minus_one_doubles(self):
        lhs = pochhammer(SignedMonomial(-1, 0), 1, 30)
        rhs = 2 * pochhammer(SignedMonomial(-1, 1), 1, 30)
        assert lhs == rhs

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroFactor):
            pochhammer(SignedMonomial(1, 0), 1, 10)

    def test_step_validated(self):
        with pytest.raises(ValueError):
            pochhammer(Q, 0, 10)

    def test_inverse_counts_partitions(self):
        f = pochhammer(Q, 1, 32).invert()
        assert f == oracle_partitions(1, 1, 32)

    def test_step_two_counts_partitions_into_even_parts(self):
        f = pochhammer(Q2, 2, 40).invert()
        assert f == oracle_partitions(1, 2, 40)


class TestPhi:
    def test_vector(self):
        assert list(phi(16)) == PHI_16

    @pytest.mark.parametrize("order", [10, 33, 64])
    def test_even(self, order):
        f = phi(order)
        assert all(f[j] == 0 for j in range(1, order, 2))

    def test_constant_term_one(self):
        assert phi(4)[0] == 1


class TestQuotientsByDivision:
    """phi and entry29_rhs divide by one binomial factor at a time; the
    references invert the whole denominator instead."""

    @pytest.mark.parametrize("order", [1, 2, 9, 300])
    def test_phi_matches_inversion(self, order):
        assert phi(order) == phi_by_inversion(order)

    @pytest.mark.parametrize("order", [1, 2, 9, 300])
    @pytest.mark.parametrize("x,y,base", ENTRY29_TRIPLES)
    def test_entry29_rhs_matches_inversion(self, x, y, base, order):
        assert entry29_rhs(x, y, base, order) == entry29_rhs_by_inversion(x, y, base, order)

    @pytest.mark.parametrize("order", [1, 2, 9, 300])
    @pytest.mark.parametrize("x,y,base", list(MORE_TRIPLES))
    def test_more_triples_match_inversion(self, x, y, base, order):
        assert entry29_rhs(x, y, base, order) == entry29_rhs_by_inversion(x, y, base, order)

    @pytest.mark.parametrize("x,y,base", list(MORE_TRIPLES))
    def test_more_triples_match_uncancelled_at_2000(self, x, y, base):
        assert entry29_rhs(x, y, base, 2000) == entry29_rhs_uncancelled(x, y, base, 2000)

    @pytest.mark.parametrize("x,y,base", list(MORE_TRIPLES))
    def test_swapped_triple_gives_the_same_series(self, x, y, base):
        assert entry29_rhs(x, y, base, 300) == entry29_rhs(y, x, base, 300)

    @pytest.mark.parametrize("x,y,base,built", BUILT_AT_40)
    def test_cancelled_symbols_are_not_built(self, monkeypatch, x, y, base, built):
        # what is left to expand: the eta signature, solved in q^g by c/g
        seen = []
        eta_expand = constructors._eta_expand

        def recording(sig, n):
            seen.append((sig, n))
            return eta_expand(sig, n)

        monkeypatch.setattr(constructors, "_eta_expand", recording)
        entry29_rhs(x, y, base, 40)
        const, c = built
        g = gcd(*c)
        assert seen == [(tuple(sorted((d // g, e) for d, e in c.items())), -(-40 // g))]
        assert constructors._signature(*constructors._entry29_symbols(x, y, base), 40) == built

    @pytest.mark.parametrize(
        "build,solved",
        [
            # 2 E(q^4)^4/E(q^2)^2 and PHI are E(q^2)^4/E(q)^2 in q^2: at order
            # 40, one solve through 20 terms
            (lambda: entry29_rhs(*ENTRY29_TRIPLES[0], 40), [20]),
            (lambda: phi(40), [20]),
            # E(q^3)^3/E(q) keeps g = 1: one solve through 40 terms
            (lambda: entry29_rhs(*ENTRY29_TRIPLES[2], 40), [40]),
        ],
        ids=["2phi-triple", "phi", "q-q-3"],
    )
    def test_divisions_run_in_q_to_the_g(self, monkeypatch, build, solved):
        seen = []
        solve = constructors._solve

        def recording(a, known=()):
            seen.append(len(a))
            return solve(a, known)

        monkeypatch.setattr(constructors, "_solve", recording)
        monkeypatch.setattr(series._Packing, "divide", None)  # no geometric division
        build()
        assert seen == solved

    @pytest.mark.parametrize("num,den", list(QUOTIENT_CASES.values()), ids=list(QUOTIENT_CASES))
    def test_quotient_matches_one_factor_at_a_time(self, num, den):
        # every order through 140 crosses the solver's leaf of 32 terms and
        # its splits at 64 and 128; a series through q^(N-1) is the prefix
        # of the same series at 140
        def below(order):
            return [Counter({f: m for f, m in c.items() if f[1] < order}) for c in (num, den)]

        reference = list(quotient_by_factors(*below(140), 140))
        for order in range(1, 141):
            assert list(factor_route(*below(order), order)) == reference[:order], order
        assert factor_route(*below(300), 300) == quotient_by_factors(*below(300), 300)

    @pytest.mark.parametrize("x,y,base", admissible_triples(5))
    def test_every_small_triple_matches_inversion(self, x, y, base):
        for order in [*range(1, 41), 300]:
            assert entry29_rhs(x, y, base, order) == entry29_rhs_by_inversion(x, y, base, order), order

    def test_phi_matches_inversion_at_every_small_order(self):
        for order in range(1, 41):
            assert phi(order) == phi_by_inversion(order), order

    @pytest.mark.parametrize(
        "build",
        [
            phi,
            lambda n: pochhammer(Q, 1, n),
            lambda n: entry29_rhs(*ENTRY29_TRIPLES[0], n),
        ],
        ids=["phi", "pochhammer", "entry29_rhs"],
    )
    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_rejected(self, build, order):
        with pytest.raises(OrderTooSmall):
            build(order)


def signature_by_factors(num, den, order):
    """(const, c) as `constructors._signature` gives it, folded from the
    Counters of binomial factors (as in `log_derivative`) one factor at a
    time: 1 + q^k = (1 - q^(2k))/(1 - q^k) gives the exponent m(k) of each
    1 - q^k, and the same divisor sieve turns m into c."""
    const, m = 1, [0] * order
    for side, sign in ((num, 1), (den, -1)):
        for (s, k), mult in side.items():
            if k == 0:  # (1 + q^0), above the bar only
                const *= 2**mult
            elif s == 1:
                m[k] += sign * mult
            else:
                m[k] -= sign * mult
                if 2 * k < order:
                    m[2 * k] += sign * mult
    for d in range(1, (order + 1) // 2):
        if m[d]:
            cd = m[d]
            m[2 * d :: d] = [e - cd for e in m[2 * d :: d]]
    return const, {d: e for d, e in enumerate(m) if e}


# (s*q^a; q^step) for both signs, a = 0..3 (but the zero factor) and steps 1..6
POCHHAMMER_CASES = [
    (SignedMonomial(s, a), step)
    for s in (1, -1)
    for a in range(4)
    for step in range(1, 7)
    if (s, a) != (1, 0)
]


class TestEtaRoute:
    """Every product is solved from the log-derivative of its eta signature;
    the factor route, solved from the log-derivative of its raw factors,
    is the reference."""

    @pytest.mark.parametrize("x,y,base", admissible_triples(6))
    def test_every_triple_up_to_base_6_matches_the_factor_route(self, x, y, base):
        symbols = constructors._entry29_symbols(x, y, base)
        for order in [*range(1, 61), 300]:
            assert constructors._product(*symbols, order) == symbol_route(*symbols, order), order
        assert entry29_rhs(x, y, base, 2000) == symbol_route(*symbols, 2000)

    def test_phi_matches_the_factor_route(self):
        for order in [*range(1, 61), 300, 2000]:
            reference = symbol_route(*PHI_SYMBOLS, order)
            assert phi(order) == reference, order
            assert constructors._product(*PHI_SYMBOLS, order) == reference, order

    @pytest.mark.parametrize("arg,step", POCHHAMMER_CASES, ids=str)
    def test_pochhammer_matches_the_factor_route(self, arg, step):
        num = [(arg.sign, arg.exponent, step)]
        for order in [*range(1, 61), 300]:
            assert constructors._product(num, [], order) == symbol_route(num, [], order), order
        assert pochhammer(arg, step, 2000) == symbol_route(num, [], 2000)

    @pytest.mark.parametrize(
        "cases",
        [
            [constructors._entry29_symbols(*t) for t in admissible_triples(7)],
            [([(arg.sign, arg.exponent, step)], []) for arg, step in POCHHAMMER_CASES],
            [PHI_SYMBOLS],
        ],
        ids=["triples-to-base-7", "pochhammer", "phi"],
    )
    def test_signature_matches_the_factor_fold(self, cases):
        for num, den in cases:
            for order in [*range(1, 61), 301]:
                expected = signature_by_factors(factors(num, order), factors(den, order), order)
                assert constructors._signature(num, den, order) == expected, (num, den, order)

    @pytest.mark.parametrize(
        "build",
        [phi, *(lambda n, t=t: entry29_rhs(*t, n) for t in ENTRY29_TRIPLES)],
        ids=["phi", *(f"triple-{i}" for i in range(len(ENTRY29_TRIPLES)))],
    )
    def test_suite_products_take_the_eta_route(self, build):
        assert not hasattr(constructors, "_log_derivative")
        build(300)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: pochhammer(Q, 3, n),
            *(lambda n, t=t: entry29_rhs(*t, n) for t in WIDE_TRIPLES),
        ],
        ids=["pochhammer-q-3", "q2-q3-7", "q-q2-5"],
    )
    def test_wide_signatures_take_the_eta_route(self, build):
        assert not hasattr(constructors, "_log_derivative")
        build(300)

    @pytest.mark.parametrize("x,y,base,signature", SUITE_SIGNATURES)
    def test_suite_side_signatures(self, x, y, base, signature):
        for order in (40, 300):
            assert constructors._signature(*constructors._entry29_symbols(x, y, base), order) == signature

    def test_phi_signature(self):
        assert constructors._signature(*PHI_SYMBOLS, 300) == (1, {2: -2, 4: 4})

    def test_signature_drops_what_reaches_the_order(self):
        # (-q^3; q^3) = E(q^6)/E(q^3); below q^6, E(q^6) is 1
        for order, c in [(4, {3: -1}), (6, {3: -1}), (7, {3: -1, 6: 1}), (13, {3: -1, 6: 1})]:
            assert constructors._signature([(-1, 3, 3)], [], order) == (1, c), order
        # (-1; q) = 2 (-q; q): the constant leaves, and 1 + q^2 drops at order 4
        assert constructors._signature([(-1, 0, 1)], [], 4) == (2, {1: -1, 2: 1})

    @pytest.fixture
    def solves(self, monkeypatch):
        """(known, solved): the term counts each solve through the package's
        one solver resumed from and reached."""
        solved = []
        solve = constructors._solve

        def counting(a, known=()):
            solved.append((len(known), len(a)))
            return solve(a, known)

        monkeypatch.setattr(constructors, "_solve", counting)
        return solved

    def test_one_e_per_suite_run(self, solves):
        # E(q^2)^4/E(q)^2 through 60 terms for I7 (PHI in q^2); for I13,
        # E(q^3)^3/E(q) through 120, and E(q^2)^4/E(q)^2 resumed from 60 to 120
        run_suite(120)
        assert solves == [(0, 60), (0, 120), (60, 120)]
        run_suite(120)
        assert solves == [(0, 60), (0, 120), (60, 120)] * 2

    def test_a_standalone_check_builds_e_as_its_products_need_it(self, solves):
        # PHI is E(q^2)^4/E(q)^2 in q^2: I7 needs it only through 60 terms
        assert check_identity(IdentityId.I7_S_EQ_QPHI, 120).passed
        assert solves == [(0, 60)]
        # I13's first side is 2*PHI, again through 60 terms; E(q^3)^3/E(q)
        # through 120 terms and E(q^2)^4/E(q)^2 resumed to 120 then serve
        # every later side
        assert check_identity(IdentityId.I13_ENTRY29_INSTANCE, 120).passed
        assert solves == [(0, 60), (0, 60), (0, 120), (60, 120)]

    def test_a_standalone_product_builds_only_what_it_needs(self, solves):
        # PHI is E(q^2)^4/E(q)^2 in q^2: 60 terms serve it at 120
        phi(120)
        entry29_rhs(*ENTRY29_TRIPLES[2], 120)
        assert solves == [(0, 60), (0, 120)]

    def test_divisor_sums_match_every_divisor_added(self):
        # each divisor d adds itself to each of its multiples
        top = 10007
        sigma = [0] * top
        for d in range(1, top):
            for j in range(d, top, d):
                sigma[j] += d
        assert constructors._divisor_sums(top) == sigma
        for n in range(301):
            assert constructors._divisor_sums(n) == sigma[:n], n

    @pytest.fixture
    def summed(self, monkeypatch):
        """The length of each divisor-sum list asked for, in order."""
        lengths = []
        divisor_sums = constructors._divisor_sums

        def counting(n):
            lengths.append(n)
            return divisor_sums(n)

        monkeypatch.setattr(constructors, "_divisor_sums", counting)
        return lengths

    def test_each_solve_sums_the_length_it_solves(self, summed):
        # the suite's three solves reach 60, 120 and 120 terms, the last
        # resumed from 60; standalone, PHI needs 60 and the 3-core side 120
        run_suite(120)
        assert summed == [60, 120, 120]
        phi(120)
        entry29_rhs(*ENTRY29_TRIPLES[2], 120)
        assert summed == [60, 120, 120, 60, 120]


def solve_by_recurrence(a):
    """Reference solve: n*p[n] = Sum_{j=1..n} a[j]*p[n-j], one n at a time."""
    p = [1] + [0] * (len(a) - 1)
    for n in range(1, len(a)):
        p[n], rest = divmod(sum(map(int.__mul__, a[1 : n + 1], reversed(p[:n]))), n)
        assert not rest, n
    return p


class TestSolve:
    """`_solve` against references that share no code with it: the
    pentagonal theorem and a product by `mul`. Every order through 140 is
    checked one factor at a time in `test_quotient_matches_one_factor_at_a_time`."""

    def test_coefficients_past_two_to_the_64(self):
        # 1/(q;q)^5 at 2000, checked as the inverse of E^5 from the theorem
        order = 2000
        got = factor_route(Counter(), Counter({(1, k): 5 for k in range(1, order)}), order)
        assert max(got).bit_length() > 64
        e = TruncatedSeries(euler_by_pentagonal(order))
        assert mul(got, mul(mul(e, e), mul(mul(e, e), e))) == TruncatedSeries.one(order)

    def test_no_integer_series_has_log_derivative_q(self):
        # p = exp(q): 2*p[2] = 1 has no integer solution
        assert constructors._solve([0, 1]) == [1, 1]
        for n in (3, 4, 40):
            with pytest.raises(ArithmeticError):
                constructors._solve([0, 1] + [0] * (n - 2))

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 100, 129, 300])
    def test_a_resumed_solve_equals_a_fresh_one(self, n):
        # E(q)^-3 E(q^2)^5 E(q^3)^-2: n crosses the leaf of 32 terms and the
        # splits at 64 and 128
        num = factors([(1, 2, 2)] * 5, n)
        den = factors([(1, 1, 1)] * 3 + [(1, 3, 3)] * 2, n)
        a = log_derivative(num, den, n)[1]
        fresh = constructors._solve(a)
        for m in {0, 1, 31, 32, 33, n - 1, n}:
            if 0 <= m <= n:
                assert constructors._solve(a, fresh[:m]) == fresh, m

    def test_fresh_and_resumed_solves_match_the_recurrence(self, monkeypatch):
        # p = 1/E^5, a = 5*sigma: its coefficients grow along p, so blocks of
        # one length need two slot widths, and each product's readback
        # starts at its block's middle
        n = 2000
        sigma = [0] * n
        for d in range(1, n):
            for j in range(d, n, d):
                sigma[j] += d
        a = [5 * t for t in sigma]
        expected = solve_by_recurrence(a)
        slots = set()

        class Recording(series._Packing):
            def __init__(self, order, bound):
                super().__init__(order, bound)
                slots.add((order, self._bytes))

        monkeypatch.setattr(constructors, "_Packing", Recording)
        assert constructors._solve(a) == expected
        lengths = Counter(length for length, _ in slots)
        assert max(lengths.values()) >= 2, lengths
        for length in [*range(1, 301), n]:
            assert constructors._solve(a[:length]) == expected[:length], length
            for m in {length // 2, length - 1} - {0}:
                assert constructors._solve(a[:length], expected[:m]) == expected[:length], (length, m)

    @pytest.mark.parametrize("m", [1, 31, 32, 33, 69])
    def test_a_resumed_solve_checks_the_part_it_solves(self, m):
        # p = E(q)^2: one more q^70 in a leaves 70*p[70] off by one
        n = 100
        a = log_derivative(Counter({(1, k): 2 for k in range(1, n)}), Counter(), n)[1]
        fresh = constructors._solve(a)
        a[70] += 1
        with pytest.raises(ArithmeticError, match="q\\^70 "):
            constructors._solve(a, fresh[:m])

    def test_euler_matches_the_pentagonal_theorem(self):
        for n in [*range(1, 301), 2000]:
            assert list(pochhammer(Q, 1, n)) == euler_by_pentagonal(n), n

    def test_eta_expand_past_two_to_the_64(self):
        # 1/E^5 from the divisor sums, checked against E^5 from the theorem
        got = TruncatedSeries(constructors._eta_expand(((1, -5),), 2000))
        assert max(got).bit_length() > 64
        e = TruncatedSeries(euler_by_pentagonal(2000))
        assert mul(got, mul(mul(e, e), mul(mul(e, e), e))) == TruncatedSeries.one(2000)

    def test_mixed_signature_matches_the_factor_route(self):
        # E(q)^-3 E(q^2)^5 E(q^3)^-2 from its Pochhammer factors, at every
        # order across the solver's leaf and splits
        sig = ((1, -3), (2, 5), (3, -2))
        num, den = [(1, 2, 2)] * 5, [(1, 1, 1)] * 3 + [(1, 3, 3)] * 2
        for order in [*range(1, 141), 300]:
            assert constructors._signature(num, den, order)[1] == {d: c for d, c in sig if d < order}
            assert constructors._eta_expand(sig, order) == list(symbol_route(num, den, order)), order


class TestConstructorArguments:
    """Degenerate orders, steps, bases and series names raise structured errors."""

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: phi(True), "order"),
            (lambda: phi(2.0), "order"),
            (lambda: entry29_rhs(*ENTRY29_TRIPLES[2], order=True), "order"),
            (lambda: entry29_rhs(Q, Q, 3.0, 10), "base"),
            (lambda: pochhammer(Q, 1, order=True), "order"),
            (lambda: pochhammer(Q, step=True, order=10), "step"),
            (lambda: pochhammer(Q, 2.0, 10), "step"),
            (lambda: named_series(SeriesId.Z, 2.0), "order"),
            (lambda: bilateral_sum(Q, Q, 3, 10.0), "order"),
            (lambda: lambert_sum(L1_SPEC, True), "order"),
            (lambda: s_window(1, 2.0, 10), "hi"),
            (lambda: lambert_term(0, 1.5, 1, 10), "b"),
            (lambda: lambert_term(True, 1, 1, 10), "a"),
            (lambda: lambert_term(0, 1, True, 10), "s"),
            (lambda: lambert_term(0, 1, 1.0, 10), "s"),
            (lambda: lambert_term(0, 1, 1, 10.0), "order"),
            (lambda: halving_windows(1.5, 10), "count"),
        ],
        ids=[
            "phi-bool",
            "phi-float",
            "entry29-bool-order",
            "entry29-float-base",
            "pochhammer-bool-order",
            "pochhammer-bool-step",
            "pochhammer-float-step",
            "named-float-order",
            "bilateral-float-order",
            "lambert-bool-order",
            "window-float-bound",
            "lambert-term-float-step",
            "lambert-term-bool-numerator",
            "lambert-term-bool-sign",
            "lambert-term-float-sign",
            "lambert-term-float-order",
            "halving-float-count",
        ],
    )
    def test_non_int_is_a_type_error_naming_the_argument(self, build, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            build()

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: pochhammer((1, 1), 1, 5), "arg"),
            (lambda: entry29_rhs((1, 1), Q, 3, 5), "x"),
            (lambda: entry29_rhs(Q, (1, 1), 3, 5), "y"),
            (lambda: bilateral_sum((1, 1), Q, 3, 5), "x"),
            (lambda: bilateral_sum(Q, (1, 1), 3, 5), "y"),
        ],
        ids=["pochhammer-arg", "entry29-x", "entry29-y", "bilateral-x", "bilateral-y"],
    )
    def test_non_monomial_is_a_type_error_naming_the_argument(self, monkeypatch, build, name):
        # raised before any product or sum is built
        monkeypatch.setattr(constructors, "_product", None)
        monkeypatch.setattr(constructors, "_add_family", None)
        with pytest.raises(TypeError, match=rf"^{name} must be a SignedMonomial, got \(1, 1\)$"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            phi,
            lambda n: pochhammer(Q, 1, n),
            lambda n: entry29_rhs(*ENTRY29_TRIPLES[0], n),
            lambda n: named_series(SeriesId.Y_DEF, n),
            lambda n: named_series(SeriesId.Z, n),
            lambda n: lambert_term(1, 1, 1, n),
            lambda n: bilateral_sum(Q, Q, 3, n),
            d2_split_product,
        ],
        ids=["phi", "pochhammer", "entry29_rhs", "Y_DEF", "Z", "lambert_term", "bilateral_sum", "d2_split"],
    )
    def test_order_below_one_has_one_message(self, build):
        for order in (0, -2):
            with pytest.raises(OrderTooSmall, match=rf"^a series needs order >= 1, got {order}$"):
                build(order)

    @pytest.mark.parametrize("sid", ["Z", None, 3])
    def test_named_series_needs_a_series_id(self, sid):
        with pytest.raises(UnsupportedSeries):
            named_series(sid, 5)


class TestPackedBuilders:
    """The six double sums of `_DOUBLE_SUMS` against the list builders
    they were first built by."""

    @pytest.mark.parametrize("sid", list(LIST_REFERENCES), ids=lambda sid: sid.value)
    def test_matches_list_reference(self, sid):
        # 1-160 meets the split at 4 to 22 (at or past the order through
        # order 8) and every order at which an outer or inner term first
        # leads below it
        for order in [*range(1, 161), 181, 182, 256, 1000, 2000]:
            assert list(named_series(sid, order)) == LIST_REFERENCES[sid](order), order

    @pytest.mark.parametrize("sid", list(LIST_REFERENCES), ids=lambda sid: sid.value)
    def test_every_term_exchanged_and_every_term_direct(self, monkeypatch, sid):
        # split 1: every outer term but those of index 0 goes through the
        # exchanged sums; split = order: every outer term is one division
        for order in [*range(1, 81), 300]:
            expected = LIST_REFERENCES[sid](order)
            for split in (1, order):
                monkeypatch.setattr(constructors, "_split", lambda n, split=split: split)
                assert list(named_series(sid, order)) == expected, (order, split)

    @pytest.mark.parametrize("sid", list(LIST_REFERENCES), ids=lambda sid: sid.value)
    def test_order_zero_rejected(self, sid):
        with pytest.raises(OrderTooSmall):
            named_series(sid, 0)


def display_pairs(sid, e):
    """(a, b, c) of every index pair +-q^a/((1 -+ q^b)(1 -+ q^c)) with a <= e
    of the double sum that `sid` names, read off its printed display rather
    than its builder."""
    if sid is SeriesId.Y_DEF:  # q^(2mn+m) / ((1+q^n)(1-q^(2m-1))), m, n >= 1
        return [(2 * m * n + m, n, 2 * m - 1) for m in range(1, e) for n in range(1, (e - m) // (2 * m) + 1)]
    if sid is SeriesId.Y_EQ1:  # q^(3m+k) / ((1-q^(2m-1))(1-q^(2m+k))), m >= 1, k >= 0
        return [(3 * m + k, 2 * m - 1, 2 * m + k) for m in range(1, e) for k in range(e - 3 * m + 1)]
    if sid is SeriesId.Y_EQ2:  # q^k/(1+q^(2k-1)) * q^n/(1+q^n), 1 <= n < k
        return [(k + n, 2 * k - 1, n) for k in range(2, e) for n in range(1, min(k, e - k + 1))]
    if sid is SeriesId.Z:  # q^m/(1-q^(2m-1)) * q^k/(1-q^k), 1 <= k <= 2m-1
        return [(m + k, 2 * m - 1, k) for m in range(1, e) for k in range(1, min(2 * m, e - m + 1))]
    if sid is SeriesId.A:  # q^(j+1) / ((1+q^(2i+1))(1+q^(2j+1))), 0 <= i < j
        return [(j + 1, 2 * i + 1, 2 * j + 1) for j in range(1, e) for i in range(j)]
    if sid is SeriesId.B:  # q^(i+2j+2) / ((1+q^(2i+1))(1+q^(2j+1))), 0 <= i < j
        return [
            (i + 2 * j + 2, 2 * i + 1, 2 * j + 1)
            for j in range(1, e)
            for i in range(min(j, e - 2 * j - 1))
        ]
    assert sid is SeriesId.B1  # the same term with 0 <= j <= i
    return [
        (i + 2 * j + 2, 2 * i + 1, 2 * j + 1)
        for i in range(e)
        for j in range(min(i + 1, (e - i) // 2))
    ]


def lattice_bound(sid, order):
    """Sum over the display's pairs of floor((e-a)/max(b, c)) + 1, at
    e = order - 1: the lattice points (u, v) with a + u*b + v*c = e that a
    pair can put on q^e, at most one v for each u."""
    e = order - 1
    return sum((e - a) // max(b, c) + 1 for a, b, c in display_pairs(sid, e))


PACKED_SUMS = [SeriesId.Y_DEF, *LIST_REFERENCES]


class TestPackedSlotBound:
    """`Y_DEF` and the six double sums are summed in slots sized from
    order^2, which A's lattice count, the largest, stays below 0.62 times."""

    @pytest.mark.parametrize("sid", PACKED_SUMS, ids=lambda sid: sid.value)
    def test_pairs_are_the_displays(self, sid):
        # every pair listed once, with a <= e, and no pair left out below e
        for e in (9, 30):
            pairs = display_pairs(sid, e)
            assert len(pairs) == len(set(pairs))
            assert all(a <= e for a, _, _ in pairs)
            assert {p for p in display_pairs(sid, e + 5) if p[0] <= e} == set(pairs)

    @pytest.mark.parametrize("sid", PACKED_SUMS, ids=lambda sid: sid.value)
    def test_lattice_count_stays_below_the_slot_bound(self, sid):
        for order in [*range(1, 151), 1000]:
            count = lattice_bound(sid, order)
            assert count <= lattice_bound(SeriesId.A, order) < 0.62 * order * order, order

    @pytest.mark.parametrize("sid", PACKED_SUMS, ids=lambda sid: sid.value)
    def test_lattice_count_bounds_the_coefficients(self, sid):
        for order in [*range(1, 61), 150]:
            assert max(map(abs, named_series(sid, order))) <= lattice_bound(sid, order), order

    @pytest.mark.parametrize("order,nb", [(1, 1), (11, 1), (12, 2), (181, 2), (182, 3), (2896, 3), (2897, 4), (46340, 4), (46341, 5), (100000, 5)])
    def test_slot_width_follows_the_order(self, order, nb):
        assert constructors._sum_packing(order)._bytes == nb


class TestPartitionOracle:
    """`oracle_partitions` counts by knapsack what the factor route solves
    from the log-derivative: 1/(q^2;q^2)^2 and 1/(q;q).
    `oracle_partition_count` counts 1/(q;q) a third way, one p(n) at a time."""

    def test_two_colored_even_parts(self):
        for order in range(1, 301):
            den = Counter({(1, k): 2 for k in range(2, order, 2)})
            assert factor_route(Counter(), den, order) == oracle_partitions(2, 2, order)

    def test_partitions(self):
        for order in range(1, 301):
            den = Counter({(1, k): 1 for k in range(1, order)})
            assert factor_route(Counter(), den, order) == oracle_partitions(1, 1, order)

    def test_partition_counts(self):
        # p(n) by descending-part recursion, which shares no code with the knapsack
        order = 40
        den = Counter({(1, k): 1 for k in range(1, order)})
        partitions = factor_route(Counter(), den, order)
        assert list(partitions) == [oracle_partition_count(n) for n in range(order)]


class TestNamedSeries:
    def test_y_def_matches_full_slices(self):
        for order in [*range(1, 41), 97, 300, 1000, 2000]:
            assert list(named_series(SeriesId.Y_DEF, order)) == y_def_by_lists(order), order

    def test_y_def_matches_both_references_through_200(self):
        for order in range(1, 201):
            got = list(named_series(SeriesId.Y_DEF, order))
            assert got == y_def_by_lists(order) == y_def_by_slices(order), order

    def test_y_def_at_every_group_lead(self):
        # a series through q^(N-1) is the prefix of the same series through
        # any higher power, so one reference serves every order below it
        reference = y_def_by_slices(2002)
        orders = sorted({n for lead in y_def_group_leads(2000) for n in (lead - 1, lead, lead + 1)} - {0})
        assert len(orders) > 150
        for order in orders:
            assert list(named_series(SeriesId.Y_DEF, order)) == reference[:order], order

    def test_y_def_matches_the_m_slices_at_4000(self):
        assert list(named_series(SeriesId.Y_DEF, 4000)) == y_def_by_slices(4000)

    def test_y_def_takes_every_pair_once_in_the_group_of_its_smaller_step(self, monkeypatch):
        family, pack, divide = constructors._add_family, series._Packing.pack, series._Packing.divide
        for order in range(1, 201):
            pending, packed, taken, divisors = {}, [], Counter(), []

            def recording_family(coeffs, a, b, s, w=1, count=1, da=1, db=0, ws=1):
                # each call is expanded into its terms' runs; a group's list
                # starts at q^(order - len), so runs are kept by absolute exponent
                runs = pending.setdefault(id(coeffs), (coeffs, []))[1]
                for k in range(count):
                    if a + k * da >= len(coeffs):
                        break
                    runs.append((a + k * da + order - len(coeffs), b + k * db, s, w * ws**k))
                family(coeffs, a, b, s, w, count, da, db, ws)

            def recording_pack(self, coeffs):
                # a group's list is packed once, and its division comes next
                packed.append(pending.pop(id(coeffs), (coeffs, []))[1])
                return pack(self, coeffs)

            def recording_division(self, x, step, sign, n):
                runs = packed.pop()
                assert not packed, (order, step, sign)
                assert runs and min(a for a, *_ in runs) == order - n, (order, step, sign)
                divisors.append((step, sign))
                taken.update((step, sign, *r) for r in runs)
                return divide(self, x, step, sign, n)

            monkeypatch.setattr(constructors, "_add_family", recording_family)
            monkeypatch.setattr(series._Packing, "pack", recording_pack)
            monkeypatch.setattr(series._Packing, "divide", recording_division)
            named_series(SeriesId.Y_DEF, order)
            assert not pending and not packed, order  # every run is packed and divided
            assert len(divisors) == len(set(divisors)), order  # each group once
            expected = Counter()
            for m in range(1, order):
                for n in range(1, order):
                    a, w = 2 * m * n + m, (-1) ** m
                    if a >= order:
                        break
                    if n >= 2 * m - 1:  # a run along n in the group of m
                        expected[2 * m - 1, 1, a, n, -1, w] += 1
                    else:  # a run along 2m-1 in the group of n
                        expected[n, -1, a, 2 * m - 1, 1, w] += 1
            assert taken == expected, order

    def test_every_id_dispatches(self):
        for sid in SeriesId:
            f = named_series(sid, 10)
            assert f.order == 10

    def test_d1_vector(self):
        assert list(named_series(SeriesId.D1, 10)) == D1_10

    def test_d2_vector(self):
        assert list(named_series(SeriesId.D2, 12)) == D2_12

    def test_d1_is_the_product_s_l1(self):
        s = named_series(SeriesId.S, 80)
        l1 = named_series(SeriesId.L1, 80)
        assert named_series(SeriesId.D1, 80) == s * l1

    def test_d2_is_the_product_s_l2(self):
        s = named_series(SeriesId.S, 80)
        l2 = named_series(SeriesId.L2, 80)
        assert named_series(SeriesId.D2, 80) == s * l2

    def test_d2_split_product_matches(self):
        assert d2_split_product(150) == named_series(SeriesId.D2, 150)

    def test_y_triple_agreement(self):
        y0 = named_series(SeriesId.Y_DEF, 150)
        assert named_series(SeriesId.Y_EQ1, 150) == y0
        assert named_series(SeriesId.Y_EQ2, 150) == y0

    def test_b1_is_a_with_negated_argument(self):
        a = named_series(SeriesId.A, 50)
        assert named_series(SeriesId.B1, 50) == a.compose_sign()

    def test_lambert_ids_match_their_specs(self):
        assert named_series(SeriesId.L1, 30) == lambert_sum(L1_SPEC, 30)
        assert named_series(SeriesId.S, 30) == lambert_sum(S_SPEC, 30)


class TestBilateral:
    def test_flagship_instance_is_twice_phi(self):
        f = bilateral_sum(SignedMonomial(-1, 1), Q, 2, 8)
        assert list(f) == [2, 0, 4, 0, 2, 0, 4, 0]
        assert f == 2 * phi(8)

    def test_base_three_vector(self):
        f = bilateral_sum(Q, Q, 3, 12)
        assert list(f) == [1, 1, 2, 0, 2, 1, 2, 0, 1, 2, 2, 0]

    @pytest.mark.parametrize(
        "x,y,base",
        [(Q, Q, 3), (SignedMonomial(-1, 1), Q2, 3), (Q, Q2, 4)],
    )
    def test_matches_product_form(self, x, y, base):
        assert bilateral_sum(x, y, base, 200) == entry29_rhs(x, y, base, 200)

    @pytest.mark.parametrize("base", range(2, 7))
    def test_every_small_triple_matches_its_lattice_points(self, base):
        # every (x, y, base) the bounds admit, zero factor on the product side or not
        triples = [
            (SignedMonomial(sx, ex), SignedMonomial(sy, ey))
            for ex in range(1, base)
            for ey in range(1, base - ex + 1)
            for sx in (1, -1)
            for sy in (1, -1)
        ]
        for x, y in triples:
            for order in (1, 2, 5, 37, 300):
                assert bilateral_sum(x, y, base, order) == bilateral_by_pairs(x, y, base, order), (x, y, order)

    @pytest.mark.parametrize("x,y,base", ENTRY29_TRIPLES)
    def test_suite_triples_match_their_lattice_points_at_2000(self, x, y, base):
        assert bilateral_sum(x, y, base, 2000) == bilateral_by_pairs(x, y, base, 2000)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 40, 301, 700])
    def test_split_product_is_the_lattice_of_b_and_b1(self, order):
        # term by term, the split display is the (i, j) lattice of B (j > i)
        # and B1 (j <= i) together
        assert d2_split_product(order) == oracle_expand(SeriesId.B, order) + oracle_expand(SeriesId.B1, order)

    def test_symmetric_in_x_and_y(self):
        # inherited from the product form, where x and y enter identically
        lhs = bilateral_sum(Q, Q2, 4, 100)
        assert lhs == bilateral_sum(Q2, Q, 4, 100)

    @pytest.mark.parametrize(
        "x,y,base",
        [
            (Q, Q, 1),  # base too small
            (SignedMonomial(1, 0), Q, 2),  # exponent 0
            (Q2, Q, 2),  # exponent reaches base
            (Q2, Q2, 3),  # exponents sum past base
        ],
    )
    def test_out_of_range_rejected(self, x, y, base):
        with pytest.raises(ParameterOutOfRange):
            bilateral_sum(x, y, base, 10)

    def test_rhs_pole_rejected(self):
        # x*y = q^base with positive joint sign puts a zero factor in the
        # denominator product
        with pytest.raises(ZeroFactor):
            entry29_rhs(Q, Q, 2, 10)

    def test_rhs_bounds_checked_too(self):
        with pytest.raises(ParameterOutOfRange):
            entry29_rhs(Q2, Q2, 3, 10)


class TestSWindow:
    def test_positive_window_is_partial_s(self):
        assert s_window(1, 60, 60) == named_series(SeriesId.S, 60)

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_halving(self, m):
        full = s_window(1 - m, m, 60)
        assert full == 2 * s_window(1, m, 60)

    def test_windows_match_their_terms(self):
        # term by term, each m <= 0 rewritten as -(-1)^m q^(1-m)/(1 - q^(1-2m))
        for order in (1, 2, 40, 300):
            for lo in range(-45, 46, 7):
                for hi in range(lo, 50, 6):
                    expected = [0] * order
                    for m in range(lo, hi + 1):
                        if m >= 1:
                            add_geometric(expected, m, 2 * m - 1, 1, (-1) ** m)
                        else:
                            add_geometric(expected, 1 - m, 1 - 2 * m, 1, -((-1) ** m))
                    assert list(s_window(lo, hi, order)) == expected, (lo, hi, order)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            s_window(3, 2, 10)

    def test_single_nonpositive_term(self):
        # m = 0 contributes -q/(1-q) after the bilateral rewrite
        f = s_window(0, 0, 6)
        assert list(f) == [0, -1, -1, -1, -1, -1]


class TestHalvingWindows:
    @pytest.mark.parametrize("order", [1, 2, 9, 300])
    def test_running_windows_match_s_window(self, order):
        # collected first, so a pair that aliased the running sums would fail
        pairs = list(halving_windows(MAX_HALVING_WINDOW, order))
        assert len(pairs) == MAX_HALVING_WINDOW
        for m, (full, twice) in enumerate(pairs, 1):
            assert full == s_window(1 - m, m, order), m
            assert twice == 2 * s_window(1, m, order), m

    def test_no_windows(self):
        assert list(halving_windows(0, 10)) == []

    @pytest.mark.parametrize(
        "count,order,error",
        [
            (1.5, 10, TypeError),
            (True, 10, TypeError),
            (2, 0, OrderTooSmall),
            (2, 10.0, TypeError),
            (-3, 10, ValueError),
        ],
    )
    def test_the_call_itself_checks_its_arguments(self, count, order, error):
        with pytest.raises(error):
            halving_windows(count, order)
