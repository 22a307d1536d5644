"""Harness behavior: suite runs, sign resolution, and fault injection.

The fault-injection tests swap in builders that corrupt or break exactly one
named series, then check that the harness pins the damage to the right
identity instead of passing silently or failing everywhere.
"""

from collections import Counter

import pytest

import lambertq.harness
from lambertq import (
    ENTRY29_TRIPLES,
    IdentityId,
    IdentityReport,
    IdentityStatus,
    Mismatch,
    NoConsistentSign,
    OrderTooSmall,
    SeriesId,
    SuiteError,
    TruncatedSeries,
    bilateral_sum,
    check_identity,
    named_series,
    run_suite,
    s_window,
    sign_resolve,
)
from lambertq.harness import _ROWS, MAX_HALVING_WINDOW, SIGN_AMBIGUOUS, UNPROVEN_NOTE

EXPECTED_FLIPS = {IdentityId.I7_S_EQ_QPHI, IdentityId.I8_SUM_DIFFERENCE}


def _corrupting(sid, index, delta):
    """Builder that perturbs one coefficient of one named series."""

    def build(s, order):
        f = named_series(s, order)
        if s is sid and index < order:
            cs = list(f.coefficients)
            cs[index] += delta
            return TruncatedSeries(cs)
        return f

    return build


def _bumped(f, index, delta):
    cs = list(f.coefficients)
    cs[index] += delta
    return TruncatedSeries(cs)


def _corrupt_side(monkeypatch, name, hit, index, delta):
    """Patch the harness's `name` so calls whose leading arguments equal
    `hit` come back with one coefficient perturbed. These sides are built
    outside the `builder` hook, so only patching can reach them."""
    original = getattr(lambertq.harness, name)

    def corrupted(*args):
        f = original(*args)
        return _bumped(f, index, delta) if args[: len(hit)] == hit else f

    monkeypatch.setattr(lambertq.harness, name, corrupted)


def _corrupt_windows(monkeypatch, name, hit, index, delta):
    """Patch the harness's `name`, which yields the I12 window pairs, so the
    full window whose bounds (1 - M, M) equal `hit` is perturbed."""
    original = getattr(lambertq.harness, name)

    def corrupted(*args):
        for m_top, (full, half) in enumerate(original(*args), 1):
            yield (_bumped(full, index, delta) if (1 - m_top, m_top) == hit else full), half

    monkeypatch.setattr(lambertq.harness, name, corrupted)


def _failures(reports):
    return {r.identity: r for r in reports if not r.passed}


class TestRunSuite:
    def test_thirteen_reports_in_declaration_order(self):
        reports = run_suite(200)
        assert [r.identity for r in reports] == list(IdentityId)

    def test_all_pass_at_order_200(self):
        reports = run_suite(200)
        assert all(r.passed for r in reports)
        flips = {r.identity for r in reports if r.status is IdentityStatus.VERIFIED_WITH_SIGN_FLIP}
        assert flips == EXPECTED_FLIPS

    def test_minimum_order(self):
        reports = run_suite(8)
        assert len(reports) == 13
        assert all(r.passed for r in reports)
        assert all(r.order_checked == 8 for r in reports)

    def test_conjecture_reports_carry_the_unproven_note(self):
        reports = {r.identity: r for r in run_suite(30)}
        assert UNPROVEN_NOTE in reports[IdentityId.I10_CONJ1_PARITY].annotation
        assert UNPROVEN_NOTE in reports[IdentityId.I11_CONJ2].annotation

    def test_flip_reports_name_their_witness(self):
        reports = {r.identity: r for r in run_suite(30)}
        assert "witness index 1" in reports[IdentityId.I7_S_EQ_QPHI].annotation
        assert "witness index 2" in reports[IdentityId.I8_SUM_DIFFERENCE].annotation

    def test_entry29_report_counts_triples(self):
        reports = {r.identity: r for r in run_suite(30)}
        note = reports[IdentityId.I13_ENTRY29_INSTANCE].annotation
        assert f"{len(ENTRY29_TRIPLES)} parameter triples" in note

    def test_elapsed_nonnegative(self):
        assert all(r.elapsed_seconds >= 0 for r in run_suite(8))

    def test_each_series_is_built_once_per_run(self):
        calls = Counter()

        def counting(sid, order):
            calls[sid, order] += 1
            return named_series(sid, order)

        run_suite(50, builder=counting)
        assert calls == Counter({(sid, 50): 1 for sid in SeriesId})

    def test_no_built_series_outlives_its_run(self):
        assert all(r.passed for r in run_suite(50))
        failed = _failures(run_suite(50, builder=_corrupting(SeriesId.Y_EQ2, 5, 1)))
        assert list(failed) == [IdentityId.I1_Y_EQ2]
        assert all(r.passed for r in run_suite(50))


class TestCheckIdentity:
    def test_order_below_eight_rejected(self):
        with pytest.raises(OrderTooSmall):
            check_identity(IdentityId.I1_Y_EQ2, 7)

    @pytest.mark.parametrize("order", [8, 50, 137, 200])
    def test_lemma2_holds_as_printed(self, order):
        r = check_identity(IdentityId.I9_LEMMA2, order)
        assert r.status is IdentityStatus.VERIFIED
        assert r.order_checked == order
        assert r.first_mismatch is None

    def test_repeat_runs_agree_except_for_timing(self):
        a = check_identity(IdentityId.I3_Z_EQ_A_PLUS_B, 60)
        b = check_identity(IdentityId.I3_Z_EQ_A_PLUS_B, 60)
        assert (a.identity, a.order_checked, a.status, a.first_mismatch, a.annotation) == (
            b.identity,
            b.order_checked,
            b.status,
            b.first_mismatch,
            b.annotation,
        )

    def test_halving_window_bound(self):
        assert MAX_HALVING_WINDOW == 200
        r = check_identity(IdentityId.I12_BILATERAL_HALVING, 50)
        assert r.status is IdentityStatus.VERIFIED


class TestSignResolution:
    def test_s_identity_holds_negated(self):
        res = sign_resolve(IdentityId.I7_S_EQ_QPHI, 100)
        assert res.sign == -1
        assert res.witness_index == 1
        assert res.order_checked == 100

    def test_difference_identity_holds_negated(self):
        res = sign_resolve(IdentityId.I8_SUM_DIFFERENCE, 100)
        assert res.sign == -1
        assert res.witness_index == 2

    def test_signs_cancel_in_the_product_identity(self):
        s7 = sign_resolve(IdentityId.I7_S_EQ_QPHI, 60).sign
        s8 = sign_resolve(IdentityId.I8_SUM_DIFFERENCE, 60).sign
        assert s7 * s8 == 1
        # which is why I9 verifies as printed
        assert check_identity(IdentityId.I9_LEMMA2, 60).status is IdentityStatus.VERIFIED

    def test_only_ambiguous_identities_accepted(self):
        with pytest.raises(ValueError):
            sign_resolve(IdentityId.I4_LEMMA1, 60)

    def test_no_consistent_sign(self):
        def junk_s(sid, order):
            if sid is SeriesId.S:
                return TruncatedSeries([0, 1, 1] + [0] * (order - 3))
            return named_series(sid, order)

        with pytest.raises(NoConsistentSign):
            sign_resolve(IdentityId.I7_S_EQ_QPHI, 50, builder=junk_s)


class TestFaultInjection:
    def test_parity_violation_is_located(self):
        r = check_identity(
            IdentityId.I10_CONJ1_PARITY, 100, builder=_corrupting(SeriesId.Y_DEF, 6, 1)
        )
        assert r.status is IdentityStatus.FAILED
        assert r.first_mismatch == Mismatch(index=6, lhs=1, rhs=0)
        assert not r.passed

    def test_corruption_hits_exactly_its_identity(self):
        reports = run_suite(50, builder=_corrupting(SeriesId.Y_EQ2, 5, 1))
        failed = [r.identity for r in reports if not r.passed]
        assert failed == [IdentityId.I1_Y_EQ2]

    def test_flip_does_not_mask_a_real_failure(self):
        # corrupt S beyond any global sign: neither +rhs nor -rhs matches
        r = check_identity(
            IdentityId.I7_S_EQ_QPHI, 50, builder=_corrupting(SeriesId.S, 0, 1)
        )
        assert r.status is IdentityStatus.FAILED

    def test_entry29_failure_names_the_triple(self):
        r = check_identity(
            IdentityId.I13_ENTRY29_INSTANCE, 50, builder=_corrupting(SeriesId.PHI, 0, 1)
        )
        assert r.status is IdentityStatus.FAILED
        assert "x=-q, y=+q, base=2" in r.annotation
        assert r.first_mismatch is not None

    def test_raising_builder_is_collected_not_fatal(self):
        def boom(sid, order):
            if sid is SeriesId.Y_EQ1:
                raise RuntimeError("injected")
            return named_series(sid, order)

        with pytest.raises(SuiteError) as exc_info:
            run_suite(50, builder=boom)
        err = exc_info.value
        assert len(err.reports) == 12
        assert [i for i, _ in err.errors] == [IdentityId.I2_Y_EQ1]
        assert isinstance(err.errors[0][1], RuntimeError)
        assert "I2_Y_EQ1" in str(err)


class TestSidesOutsideTheBuilder:
    """Fault containment for the sides that are not named series."""

    @pytest.mark.parametrize(
        "name,hit,index,delta,ident,mismatch,annotation",
        [
            (
                "halving_windows",
                (-36, 37),
                9,
                1,
                IdentityId.I12_BILATERAL_HALVING,
                Mismatch(9, -3, -4),
                "window M=37",
            ),
            (
                "entry29_rhs",
                ENTRY29_TRIPLES[2],
                5,
                2,
                IdentityId.I13_ENTRY29_INSTANCE,
                Mismatch(5, 1, 3),
                "triple x=+q, y=+q, base=3",
            ),
            (
                "bilateral_sum",
                ENTRY29_TRIPLES[4],
                6,
                1,
                IdentityId.I13_ENTRY29_INSTANCE,
                Mismatch(6, 4, 3),
                "triple x=+q, y=+q, base=4",
            ),
            (
                "d2_split_product",
                (),
                7,
                -1,
                IdentityId.I6_D2_FORMS,
                Mismatch(7, -5, -6),
                "D2 vs split product",
            ),
        ],
        ids=["s_window", "entry29_rhs", "bilateral_sum", "d2_split_product"],
    )
    def test_corruption_is_pinned_to_its_identity(
        self, monkeypatch, name, hit, index, delta, ident, mismatch, annotation
    ):
        corrupt = _corrupt_windows if name == "halving_windows" else _corrupt_side
        corrupt(monkeypatch, name, hit, index, delta)
        failed = _failures(run_suite(50))
        assert list(failed) == [ident]
        assert failed[ident].status is IdentityStatus.FAILED
        assert failed[ident].first_mismatch == mismatch
        assert failed[ident].annotation == annotation


class TestBilateralRows:
    """I12 grows its windows and I13 shares the right side of swapped triples;
    the pairs they compare are the ones the plain definitions give."""

    def test_halving_pairs_are_the_s_windows(self):
        pairs = list(_ROWS[IdentityId.I12_BILATERAL_HALVING](60, named_series))
        assert len(pairs) == MAX_HALVING_WINDOW
        for m, (label, lhs, rhs) in enumerate(pairs, 1):
            assert label == f"window M={m}"
            assert lhs == s_window(1 - m, m, 60)
            assert rhs == 2 * s_window(1, m, 60)

    def test_halving_makes_no_s_window_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("I12 rebuilt a window")

        monkeypatch.setattr(lambertq.harness, "s_window", refuse)
        assert check_identity(IdentityId.I12_BILATERAL_HALVING, 100).passed

    def test_entry29_pairs_and_shared_right_side(self, monkeypatch):
        calls = []
        original = lambertq.harness.entry29_rhs

        def counting(*args):
            calls.append(args[:3])
            return original(*args)

        monkeypatch.setattr(lambertq.harness, "entry29_rhs", counting)
        pairs = list(_ROWS[IdentityId.I13_ENTRY29_INSTANCE](120, named_series))
        # triples 0 and 1 swap x and y, so the second reuses the first's right side
        assert calls == [ENTRY29_TRIPLES[0], *ENTRY29_TRIPLES[2:]]
        by_triple = [pairs[0], *pairs[2:]]
        flagship = bilateral_sum(*ENTRY29_TRIPLES[0], 120)
        assert pairs[1][1:] == (flagship, 2 * named_series(SeriesId.PHI, 120))
        for (x, y, base), (label, lhs, rhs) in zip(ENTRY29_TRIPLES, by_triple):
            assert label == f"triple x={x}, y={y}, base={base}"
            assert lhs == bilateral_sum(x, y, base, 120)
            assert rhs == original(x, y, base, 120)


class TestConjectureFailures:
    def test_failed_parity_carries_no_note_and_failed_conj2_keeps_it(self):
        failed = _failures(run_suite(50, builder=_corrupting(SeriesId.Y_DEF, 6, 1)))
        assert list(failed) == [
            IdentityId.I1_Y_EQ2,
            IdentityId.I2_Y_EQ1,
            IdentityId.I5_D1_DECOMP,
            IdentityId.I10_CONJ1_PARITY,
            IdentityId.I11_CONJ2,
        ]
        parity = failed[IdentityId.I10_CONJ1_PARITY]
        assert parity.first_mismatch == Mismatch(6, 1, 0)
        assert parity.annotation is None
        conj2 = failed[IdentityId.I11_CONJ2]
        assert conj2.first_mismatch == Mismatch(6, 1, 0)
        assert conj2.annotation == UNPROVEN_NOTE

    def test_failed_conj2_from_d2_keeps_the_note(self):
        failed = _failures(run_suite(50, builder=_corrupting(SeriesId.D2, 7, 1)))
        assert list(failed) == [
            IdentityId.I6_D2_FORMS,
            IdentityId.I9_LEMMA2,
            IdentityId.I11_CONJ2,
        ]
        assert failed[IdentityId.I6_D2_FORMS].annotation == "D2 vs B + B1"
        conj2 = failed[IdentityId.I11_CONJ2]
        assert conj2.first_mismatch == Mismatch(7, -3, -2)
        assert conj2.annotation == UNPROVEN_NOTE


class TestReportInvariants:
    def test_failed_needs_a_mismatch(self):
        with pytest.raises(ValueError):
            IdentityReport(
                identity=IdentityId.I1_Y_EQ2,
                order_checked=10,
                status=IdentityStatus.FAILED,
                first_mismatch=None,
                elapsed_seconds=0.0,
            )

    def test_passing_must_not_carry_a_mismatch(self):
        with pytest.raises(ValueError):
            IdentityReport(
                identity=IdentityId.I1_Y_EQ2,
                order_checked=10,
                status=IdentityStatus.VERIFIED,
                first_mismatch=Mismatch(0, 1, 2),
                elapsed_seconds=0.0,
            )

    def test_flip_status_restricted_to_ambiguous_identities(self):
        assert SIGN_AMBIGUOUS == EXPECTED_FLIPS
        with pytest.raises(ValueError):
            IdentityReport(
                identity=IdentityId.I4_LEMMA1,
                order_checked=10,
                status=IdentityStatus.VERIFIED_WITH_SIGN_FLIP,
                first_mismatch=None,
                elapsed_seconds=0.0,
            )

    def test_passed_property(self):
        ok = IdentityReport(
            identity=IdentityId.I1_Y_EQ2,
            order_checked=10,
            status=IdentityStatus.VERIFIED,
            first_mismatch=None,
            elapsed_seconds=0.0,
        )
        bad = IdentityReport(
            identity=IdentityId.I1_Y_EQ2,
            order_checked=10,
            status=IdentityStatus.FAILED,
            first_mismatch=Mismatch(0, 1, 2),
            elapsed_seconds=0.0,
        )
        assert ok.passed and not bad.passed


def test_entry29_triples_are_admissible():
    assert len(ENTRY29_TRIPLES) >= 5
    assert ENTRY29_TRIPLES[0][2] == 2  # flagship base-2 instance leads
    for x, y, base in ENTRY29_TRIPLES:
        bilateral_sum(x, y, base, 8)  # must not raise
