"""Core ring tests: arithmetic, inversion, composition, comparison, parity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertq import (
    ENTRY29_TRIPLES,
    Comparison,
    Mismatch,
    NotAUnit,
    OrderTooSmall,
    Parity,
    SignedMonomial,
    TruncatedSeries,
    compare,
    entry29_rhs,
    format_polynomial,
    geometric_mul,
    linear_combine,
    mul,
    parity_of,
    phi,
    pochhammer,
)
from lambertq.series import _Packing, geometric_mul_inplace

# Bounded random series for property tests. Coefficients stay small so
# failures print readably; exactness does not depend on magnitude.
series_st = st.builds(
    TruncatedSeries,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=64),
)
# Wide coefficients for the multiply: mostly small, some far past 64 bits.
wide_st = st.builds(
    TruncatedSeries,
    st.lists(
        st.one_of(st.integers(-9, 9), st.integers(-(2**300), 2**300)),
        min_size=1,
        max_size=40,
    ),
)
unit_st = st.builds(
    lambda lead, rest: TruncatedSeries([lead] + rest),
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=63),
)


def schoolbook(f, g):
    """Reference product: the plain double loop, truncated to the smaller order."""
    n = min(f.order, g.order)
    out = [0] * n
    for i, a in enumerate(f.coefficients[:n]):
        for j, b in enumerate(g.coefficients[: n - i]):
            out[i + j] += a * b
    return TruncatedSeries(out)


class TestConstruction:
    def test_coefficients_are_copied_and_exposed_as_tuple(self):
        raw = [1, 2, 3]
        f = TruncatedSeries(raw)
        raw[0] = 99
        assert f.coefficients == (1, 2, 3)
        assert f.order == 3

    def test_empty_rejected(self):
        with pytest.raises(OrderTooSmall):
            TruncatedSeries([])

    @pytest.mark.parametrize("bad", [1.0, "1", None, True])
    def test_non_int_coefficient_rejected(self, bad):
        with pytest.raises(TypeError):
            TruncatedSeries([1, bad])

    def test_bool_is_not_an_int_here(self):
        # bool subclasses int but admitting it invites silent arithmetic bugs
        with pytest.raises(TypeError):
            TruncatedSeries([False])

    def test_zero_one_monomial(self):
        assert TruncatedSeries.zero(3).coefficients == (0, 0, 0)
        assert TruncatedSeries.one(3).coefficients == (1, 0, 0)
        m = TruncatedSeries.monomial(2, 5, coefficient=-4)
        assert m.coefficients == (0, 0, -4, 0, 0)

    def test_monomial_at_or_above_order_is_zero(self):
        assert TruncatedSeries.monomial(7, 4) == TruncatedSeries.zero(4)

    def test_immutable(self):
        f = TruncatedSeries([1, 2])
        with pytest.raises(AttributeError):
            f.order = 5

    def test_indexing_iteration_len(self):
        f = TruncatedSeries([3, 0, -1])
        assert f[2] == -1
        assert list(f) == [3, 0, -1]
        assert len(f) == 3

    def test_hash_consistent_with_eq(self):
        assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))
        assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])

    def test_bool(self):
        assert not TruncatedSeries.zero(5)
        assert TruncatedSeries.monomial(4, 5)


class TestLinearOps:
    def test_add_same_order(self):
        f = TruncatedSeries([1, 2, 3])
        g = TruncatedSeries([0, -2, 4])
        assert (f + g).coefficients == (1, 0, 7)

    def test_mixed_order_truncates_to_min(self):
        f = TruncatedSeries([1, 1, 1, 1])
        g = TruncatedSeries([1, 1])
        assert (f + g).order == 2
        assert (f - g).coefficients == (0, 0)

    def test_neg_and_scalar(self):
        f = TruncatedSeries([1, -2])
        assert (-f).coefficients == (-1, 2)
        assert (3 * f).coefficients == (3, -6)
        assert (f * -1) == -f
        assert (0 * f) == TruncatedSeries.zero(2)

    def test_linear_combine(self):
        f = TruncatedSeries([1, 1, 0])
        g = TruncatedSeries([1, -1, 0])
        assert linear_combine(1, f, 1, g).coefficients == (2, 0, 0)
        assert linear_combine(2, f, -2, f) == TruncatedSeries.zero(3)

    @given(series_st, series_st)
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(series_st)
    def test_sub_self_is_zero(self, f):
        assert f - f == TruncatedSeries.zero(f.order)


class TestMul:
    def test_difference_of_squares(self):
        one_plus = TruncatedSeries([1, 1] + [0] * 6)
        one_minus = TruncatedSeries([1, -1] + [0] * 6)
        assert (one_plus * one_minus).coefficients == (1, 0, -1, 0, 0, 0, 0, 0)

    def test_identity_element(self):
        f = TruncatedSeries([2, -3, 5, 7])
        assert f * TruncatedSeries.one(4) == f

    def test_scalar_vs_constant_series(self):
        f = TruncatedSeries([1, 4, -2])
        assert 3 * f == TruncatedSeries([3, 0, 0]) * f

    def test_mixed_order_result(self):
        f = TruncatedSeries([1, 1, 1, 1, 1])
        g = TruncatedSeries([1, 1])
        assert (f * g).coefficients == (1, 2)

    @pytest.mark.parametrize("n", [1, 2, 7, 47, 48, 49, 96, 130, 257])
    def test_matches_schoolbook_reference(self, n):
        rng = random.Random(n)
        for bound in (9, 2**64, 2**200):
            f = TruncatedSeries([rng.randint(-bound, bound) for _ in range(n)])
            g = TruncatedSeries([rng.randint(-bound, bound) for _ in range(n)])
            assert mul(f, g) == schoolbook(f, g)

    @given(wide_st, wide_st)
    @settings(max_examples=150)
    def test_wide_operands_match_schoolbook_reference(self, f, g):
        assert mul(f, g) == schoolbook(f, g)

    def test_huge_magnitudes(self):
        rng = random.Random(200)
        f = TruncatedSeries([rng.choice([-1, 1]) * 2**rng.randint(200, 600) for _ in range(33)])
        g = TruncatedSeries([rng.randint(-(2**256), 2**256) for _ in range(33)])
        small = TruncatedSeries([rng.randint(-1, 1) for _ in range(33)])
        assert mul(f, g) == schoolbook(f, g)
        assert mul(f, small) == schoolbook(f, small)
        # the extreme slot: every coefficient at the bound, all products aligned
        top = TruncatedSeries([-(2**200)] * 17)
        assert mul(top, top) == schoolbook(top, top)
        assert mul(top, top)[16] == 17 * 2**400

    def test_all_negative_operands(self):
        rng = random.Random(7)
        f = TruncatedSeries([-rng.randint(1, 2**80) for _ in range(50)])
        g = TruncatedSeries([-rng.randint(1, 9) for _ in range(50)])
        assert mul(f, g) == schoolbook(f, g)
        assert all(c > 0 for c in mul(f, g))

    def test_zero_operands(self):
        huge = TruncatedSeries([(-1) ** i * 2**300 for i in range(20)])
        zero = TruncatedSeries.zero(20)
        assert mul(zero, zero) == zero
        assert mul(zero, huge) == zero
        assert mul(huge, zero) == zero
        assert mul(TruncatedSeries.zero(1), TruncatedSeries([-(2**500)])) == TruncatedSeries([0])

    @pytest.mark.parametrize("a,b", [(0, 5), (1, 1), (-1, 1), (-3, -7), (2**200, -(2**201)), (-(2**300), 0)])
    def test_length_one_operands(self, a, b):
        assert mul(TruncatedSeries([a]), TruncatedSeries([b])).coefficients == (a * b,)

    def test_mismatched_orders(self):
        rng = random.Random(3)
        for m, n in ((1, 40), (40, 1), (5, 64), (64, 5), (31, 33)):
            f = TruncatedSeries([rng.randint(-(2**100), 2**100) for _ in range(m)])
            g = TruncatedSeries([rng.randint(-9, 9) for _ in range(n)])
            assert mul(f, g) == schoolbook(f, g)
            assert mul(f, g).order == min(m, n)

    def test_phi_product_at_600(self):
        # the operands phi() multiplies: (q^4;q^4)^4 and 1/(q^2;q^2)^2
        p4 = pochhammer(SignedMonomial(1, 4), 4, 600)
        p2 = pochhammer(SignedMonomial(1, 2), 2, 600)
        num = schoolbook(schoolbook(p4, p4), schoolbook(p4, p4))
        inv = schoolbook(p2, p2).invert()
        assert mul(num, inv) == schoolbook(num, inv)
        assert mul(num, inv) == phi(600)

    @pytest.mark.parametrize("x,y,base", ENTRY29_TRIPLES)
    def test_entry29_rhs_products(self, x, y, base):
        # the operands entry29_rhs multiplies, rebuilt with the reference product
        def poch(sign, exponent):
            return pochhammer(SignedMonomial(sign, exponent), base, 300)

        sxy, exy = x.sign * y.sign, x.exponent + y.exponent
        qq = poch(1, base)
        num = schoolbook(schoolbook(qq, qq), schoolbook(poch(sxy, exy), poch(sxy, base - exy)))
        dx = (poch(x.sign, x.exponent), poch(x.sign, base - x.exponent))
        dy = (poch(y.sign, y.exponent), poch(y.sign, base - y.exponent))
        den = (schoolbook(*dx), schoolbook(*dy))
        assert (mul(*dx), mul(*dy)) == den
        assert mul(*den) == schoolbook(*den)
        inv = schoolbook(*den).invert()
        assert mul(num, inv) == schoolbook(num, inv) == entry29_rhs(x, y, base, 300)

    @given(series_st, series_st, series_st)
    @settings(max_examples=60)
    def test_distributes_over_addition(self, f, g, h):
        n = min(f.order, g.order, h.order)
        lhs = f * (g + h)
        rhs = f * g + f * h
        assert lhs.truncate(n) == rhs.truncate(n)

    @given(series_st, series_st)
    def test_commutes(self, f, g):
        assert f * g == g * f

    @given(series_st, series_st, series_st)
    @settings(max_examples=60)
    def test_associates(self, f, g, h):
        n = min(f.order, g.order, h.order)
        assert ((f * g) * h).truncate(n) == (f * (g * h)).truncate(n)

    @given(series_st, series_st)
    def test_truncation_coherence(self, f, g):
        # truncating inputs first never changes the surviving window
        n = min(f.order, g.order)
        for m in (1, (n + 1) // 2, n):
            assert (f * g).truncate(m) == f.truncate(m) * g.truncate(m)


class TestPacking:
    @pytest.mark.parametrize("order", [1, 2, 7, 50])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_divide_matches_geometric_mul_inplace(self, order, sign):
        rng = random.Random(order)
        wide = _Packing(order, 2**40)
        top = 2 ** (wide.width - 1) - 1
        small = [rng.randint(-9, 9) for _ in range(order)]
        cases = [
            (wide, [top] + [0] * (order - 1)),  # every output coefficient at +-top
            (wide, [-top] + [0] * (order - 1)),
            (wide, ([top, -sign * top] + [0] * order)[:order]),  # output top, then zeros
            (_Packing(order, 9 * order), small),
        ]
        for step in sorted({1, 2, max(order - 1, 1), order, order + 5}):
            for p, cs in cases:
                expected = list(cs)
                geometric_mul_inplace(expected, step, sign)
                assert p.unpack(p.divide(p.pack(cs), step, sign)).coefficients == tuple(expected)

    def test_divide_rejects_step_zero(self):
        with pytest.raises(ValueError):
            _Packing(4, 9).divide(1, 0, 1)

    def test_order_zero_rejected(self):
        with pytest.raises(OrderTooSmall):
            _Packing(0, 9)

    @given(st.data())
    @settings(max_examples=150)
    def test_pack_unpack_round_trips_at_the_slot_bound(self, data):
        order = data.draw(st.integers(1, 40))
        bound = data.draw(st.one_of(st.integers(0, 300), st.integers(0, 2**200)))
        p = _Packing(order, bound)
        top = 2 ** (p.width - 1) - 1
        assert top >= bound
        edge = st.sampled_from([top, -top, 0, 1, -1])
        cs = data.draw(st.lists(st.one_of(edge, st.integers(-top, top)), min_size=order, max_size=order))
        x = p.pack(cs)
        assert p.unpack(x).coefficients == tuple(cs)
        for k in (0, 1, order - 1, order, order + 3):
            assert p.unpack(p.shift(x, k)) == TruncatedSeries(cs).shift(k)


class TestInvert:
    def test_geometric(self):
        f = TruncatedSeries([1, -1, 0, 0, 0, 0])
        assert f.invert().coefficients == (1, 1, 1, 1, 1, 1)

    def test_alternating(self):
        f = TruncatedSeries([1, 1, 0, 0])
        assert f.invert().coefficients == (1, -1, 1, -1)

    def test_negative_unit(self):
        f = TruncatedSeries([-1, 1, 0])
        assert f * f.invert() == TruncatedSeries.one(3)

    @pytest.mark.parametrize("lead", [0, 2, -3])
    def test_non_unit_rejected(self, lead):
        with pytest.raises(NotAUnit):
            TruncatedSeries([lead, 1, 1]).invert()

    @given(unit_st)
    def test_two_sided_inverse(self, f):
        g = f.invert()
        one = TruncatedSeries.one(f.order)
        assert f * g == one
        assert g * f == one

    @given(unit_st)
    def test_involution(self, f):
        assert f.invert().invert() == f


class TestComposition:
    def test_compose_sign_flips_odd_indices(self):
        f = TruncatedSeries([5, 4, 3, 2, 1])
        assert f.compose_sign().coefficients == (5, -4, 3, -2, 1)

    @given(series_st)
    def test_compose_sign_involution(self, f):
        assert f.compose_sign().compose_sign() == f

    @given(series_st, series_st)
    def test_compose_sign_is_ring_map(self, f, g):
        assert (f * g).compose_sign() == f.compose_sign() * g.compose_sign()
        assert (f + g).compose_sign() == f.compose_sign() + g.compose_sign()

    def test_compose_power_spreads_exponents(self):
        # order is preserved, so coefficients landing past it fall away
        f = TruncatedSeries([1, 2, 3, 0, 0, 0, 0])
        assert f.compose_power(3).coefficients == (1, 0, 0, 2, 0, 0, 3)
        assert TruncatedSeries([1, 2, 3]).compose_power(3).coefficients == (1, 0, 0)

    def test_compose_power_identity(self):
        f = TruncatedSeries([1, 2, 3])
        assert f.compose_power(1) == f

    def test_compose_power_rejects_nonpositive(self):
        f = TruncatedSeries([1])
        with pytest.raises(ValueError):
            f.compose_power(0)

    @given(series_st, series_st, st.integers(min_value=2, max_value=4))
    @settings(max_examples=60)
    def test_compose_power_is_ring_map(self, f, g, t):
        lhs = (f * g).compose_power(t)
        rhs = f.compose_power(t) * g.compose_power(t)
        assert lhs == rhs


class TestShiftTruncate:
    def test_shift(self):
        f = TruncatedSeries([1, 2, 3, 4])
        assert f.shift(2).coefficients == (0, 0, 1, 2)

    def test_shift_zero_is_identity(self):
        f = TruncatedSeries([3, 1])
        assert f.shift(0) == f

    def test_shift_past_order(self):
        f = TruncatedSeries([1, 2, 3])
        assert f.shift(3) == TruncatedSeries.zero(3)
        assert f.shift(7) == TruncatedSeries.zero(3)

    def test_shift_negative_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1]).shift(-1)

    def test_truncate(self):
        f = TruncatedSeries([1, 2, 3, 4])
        assert f.truncate(2).coefficients == (1, 2)
        assert f.truncate(4) == f

    def test_truncate_cannot_extend(self):
        with pytest.raises(OrderTooSmall):
            TruncatedSeries([1, 2]).truncate(3)

    def test_truncate_to_zero_rejected(self):
        with pytest.raises(OrderTooSmall):
            TruncatedSeries([1, 2]).truncate(0)


class TestCompare:
    def test_equal(self):
        f = TruncatedSeries([1, 0, 2])
        c = compare(f, TruncatedSeries([1, 0, 2]))
        assert c == Comparison(equal=True, order_checked=3, first_mismatch=None)

    def test_first_mismatch(self):
        f = TruncatedSeries([1, 1, 5])
        g = TruncatedSeries([1, -1, 7])
        c = compare(f, g)
        assert not c.equal
        assert c.first_mismatch == Mismatch(index=1, lhs=1, rhs=-1)

    def test_explicit_order_narrows_window(self):
        f = TruncatedSeries([1, 1, 5])
        g = TruncatedSeries([1, 1, 7])
        assert compare(f, g, order=2).equal

    def test_order_beyond_operands_rejected(self):
        f = TruncatedSeries([1, 1])
        with pytest.raises(OrderTooSmall):
            compare(f, f, order=3)

    def test_mixed_orders_use_min(self):
        f = TruncatedSeries([1, 2, 3, 4])
        g = TruncatedSeries([1, 2])
        assert compare(f, g).order_checked == 2


class TestParity:
    def test_zero_is_both(self):
        v = parity_of(TruncatedSeries.zero(6))
        assert v.kind is Parity.ODD_AND_EVEN
        assert v.first_nonzero_even is None
        assert v.first_nonzero_odd is None
        assert v.first_violation is None

    def test_odd(self):
        v = parity_of(TruncatedSeries([0, 3, 0, -1, 0]))
        assert v.kind is Parity.ODD
        assert v.first_nonzero_odd == 1
        assert v.first_nonzero_even is None

    def test_even(self):
        v = parity_of(TruncatedSeries([1, 0, 0, 0, 5]))
        assert v.kind is Parity.EVEN
        assert v.first_nonzero_even == 0

    def test_neither_reports_first_violation(self):
        v = parity_of(TruncatedSeries([0, 0, 4, 1, 0]))
        assert v.kind is Parity.NEITHER
        assert v.first_nonzero_even == 2
        assert v.first_nonzero_odd == 3
        assert v.first_violation == 2


def geometric_mul_by_loop(coeffs, step, sign):
    """Reference division by 1 - sign*q^step: the per-element loop that the
    slice-based `geometric_mul_inplace` replaced."""
    for i in range(step, len(coeffs)):
        coeffs[i] += sign * coeffs[i - step]


class TestGeometricMul:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 50, 301])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_inplace_matches_loop_reference(self, n, sign):
        # every step from 1 past the end, so both the residue-class path
        # (step*step < n) and the block path run, with their boundary
        rng = random.Random(n * 10 + sign)
        for step in range(1, n + 3):
            for width in (4, 300):
                cs = [rng.randint(-(2**width), 2**width) for _ in range(n)]
                expected = list(cs)
                geometric_mul_by_loop(expected, step, sign)
                geometric_mul_inplace(cs, step, sign)
                assert cs == expected, (step, width)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_inplace_extreme_magnitudes(self, sign):
        top = 2**300
        alternating = [(-1) ** i * top for i in range(64)]
        for cs in ([top] * 64, [-top] * 64, alternating, [top] + [0] * 63):
            for step in (1, 2, 7, 8, 9, 63, 64):
                got, expected = list(cs), list(cs)
                geometric_mul_inplace(got, step, sign)
                geometric_mul_by_loop(expected, step, sign)
                assert got == expected

    @pytest.mark.parametrize("step,sign", [(1, 1), (1, -1), (3, 1), (5, -1)])
    def test_matches_explicit_product(self, step, sign):
        rng = random.Random(step * 10 + sign)
        f = TruncatedSeries([rng.randint(-9, 9) for _ in range(40)])
        geo = [0] * 40
        for j in range(0, 40, step):
            geo[j] = sign ** (j // step)
        assert geometric_mul(f, step, sign) == f * TruncatedSeries(geo)

    def test_rejects_bad_parameters(self):
        f = TruncatedSeries([1, 1])
        with pytest.raises(ValueError):
            geometric_mul(f, 0, 1)
        with pytest.raises(ValueError):
            geometric_mul(f, 1, 2)


def test_format_polynomial():
    f = TruncatedSeries([1, 0, 2, 0])
    assert format_polynomial(f) == "1 + 2*q^2 + O(q^4)"
    g = TruncatedSeries([0, -1, 0, 0, 3])
    assert format_polynomial(g) == "-q + 3*q^4 + O(q^5)"
    assert format_polynomial(TruncatedSeries.zero(3)) == "0 + O(q^3)"


def test_format_polynomial_truncates_long_output():
    f = TruncatedSeries([1] * 30)
    s = formatted = format_polynomial(f, max_terms=4)
    assert formatted.count("+") >= 4
    assert "..." in s
