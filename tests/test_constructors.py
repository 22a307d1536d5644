"""Constructor tests against hand-expanded vectors and independent re-summation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertq import (
    ENTRY29_TRIPLES,
    DivergentSpec,
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
    ZeroFactor,
    bilateral_sum,
    d2_split_product,
    entry29_rhs,
    lambert_sum,
    lambert_term,
    mul,
    named_series,
    phi,
    pochhammer,
    s_window,
)
from lambertq.oracle import oracle_partitions
from lambertq.series import geometric_mul_inplace

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


def phi_by_inversion(order):
    """Reference PHI: the numerator times the inverted denominator product."""
    p4 = pochhammer(SignedMonomial(1, 4), 4, order)
    p2 = pochhammer(SignedMonomial(1, 2), 2, order)
    return mul(mul(mul(p4, p4), mul(p4, p4)), mul(p2, p2).invert())


def entry29_rhs_by_inversion(x, y, base, order):
    """Reference product form: all eight Pochhammer symbols built, the
    denominator multiplied out and inverted."""

    def poch(sign, exponent):
        return pochhammer(SignedMonomial(sign, exponent), base, order)

    sxy, exy = x.sign * y.sign, x.exponent + y.exponent
    qq = poch(1, base)
    num = mul(mul(qq, qq), mul(poch(sxy, exy), poch(sxy, base - exy)))
    den = mul(
        mul(poch(x.sign, x.exponent), poch(x.sign, base - x.exponent)),
        mul(poch(y.sign, y.exponent), poch(y.sign, base - y.exponent)),
    )
    return mul(num, den.invert())


# -- reference builders ---------------------------------------------------------
# The list-based double-sum builders the packed ones replaced, kept as
# differential references: every slice is a pure-Python pass over a
# coefficient list.


def add_geometric(coeffs, a, b, s, weight=1):
    """Accumulate weight * q^a/(1 - s*q^b) into a coefficient list."""
    e = a
    while e < len(coeffs):
        coeffs[e] += weight
        weight *= s
        e += b


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
        h = tail.copy()
        geometric_mul_inplace(h, 2 * i + 1, -1)
        add_slice(out, h, i + 2, 1)
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
        h = inner.copy()
        geometric_mul_inplace(h, 2 * i + 1, -1)
        add_slice(out, [0] * i + h[: order - i], i, 1)
    return out


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

    @pytest.mark.parametrize("sign,exponent", [(1.0, 1), (1, 2.0), ("1", 1)])
    def test_non_int_rejected(self, sign, exponent):
        # built series take their coefficients from the sign unchecked
        with pytest.raises(TypeError):
            SignedMonomial(sign, exponent)


class TestLambertTerm:
    def test_geometric_numerator_one(self):
        assert list(lambert_term(1, 1, 1, 5)) == [0, 1, 1, 1, 1]

    def test_negative_denominator_sign(self):
        f = lambert_term(2, 3, -1, 10)
        assert list(f) == [0, 0, 1, 0, 0, -1, 0, 0, 1, 0]

    def test_numerator_past_order_is_zero(self):
        assert lambert_term(12, 1, 1, 5) == TruncatedSeries.zero(5)

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

    def test_sign_fields_validated(self):
        with pytest.raises(ValueError):
            LambertSpec(scalar=1, num_sign=0, a0=0, a1=1, den_sign=1, b0=0, b1=1)

    @pytest.mark.parametrize("field", ["scalar", "num_sign", "a0", "b1"])
    def test_non_int_fields_rejected(self, field):
        kwargs = dict(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=0, b1=1)
        kwargs[field] = float(kwargs[field])
        with pytest.raises(TypeError):
            LambertSpec(**kwargs)


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


class TestPackedBuilders:
    @pytest.mark.parametrize("sid", list(LIST_REFERENCES), ids=lambda sid: sid.value)
    def test_matches_list_reference(self, sid):
        for order in [*range(1, 41), 97, 256, 1000, 2000]:
            assert list(named_series(sid, order)) == LIST_REFERENCES[sid](order), order

    @pytest.mark.parametrize("sid", list(LIST_REFERENCES), ids=lambda sid: sid.value)
    def test_order_zero_rejected(self, sid):
        with pytest.raises(OrderTooSmall):
            named_series(sid, 0)


class TestNamedSeries:
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

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            s_window(3, 2, 10)

    def test_single_nonpositive_term(self):
        # m = 0 contributes -q/(1-q) after the bilateral rewrite
        f = s_window(0, 0, 6)
        assert list(f) == [0, -1, -1, -1, -1, -1]
