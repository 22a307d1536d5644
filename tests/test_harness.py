"""Harness behavior: suite runs, sign resolution, and fault injection.

The fault-injection tests swap in builders that corrupt or break exactly one
named series, then check that the harness pins the damage to the right
identity instead of passing silently or failing everywhere.
"""

from collections import Counter

import pytest

import lambertq.harness
from lambertq import constructors
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
    compare,
    halving_windows,
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


def _bumped_list(cs, index, delta):
    cs = list(cs)
    cs[index] += delta
    return cs


def _bumped(f, index, delta):
    return TruncatedSeries(_bumped_list(f.coefficients, index, delta))


def _corrupt_side(monkeypatch, name, hit, index, delta):
    """Patch the harness's `name` so calls whose leading arguments equal
    `hit` come back with one coefficient perturbed. These sides are built
    outside the `builder` hook, so only patching can reach them."""
    original = getattr(lambertq.harness, name)

    def corrupted(*args):
        f = original(*args)
        return _bumped(f, index, delta) if args[: len(hit)] == hit else f

    monkeypatch.setattr(lambertq.harness, name, corrupted)


def _corrupt_windows(monkeypatch, name, hit, index, delta, side=0):
    """Patch the harness's `name`, which yields I12's two running lists, so
    one side (0 the full window, 1 twice the half) of the window whose
    bounds (1 - M, M) equal `hit` is perturbed in a copy; the running lists
    themselves are left as they are."""
    original = getattr(lambertq.harness, name)

    def corrupted(*args):
        for m_top, pair in enumerate(original(*args), 1):
            if (1 - m_top, m_top) == hit:
                pair = list(pair)
                pair[side] = _bumped_list(pair[side], index, delta)
            yield tuple(pair)

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

    def test_each_series_is_built_once_per_run(self, monkeypatch):
        # a build is a call of a `_BUILDERS` entry, or a Lambert sum a
        # builder makes for itself, as D1 and D2 could for S, L1 and L2
        builds = Counter()
        for sid, build in constructors._BUILDERS.items():

            def counting(order, sid=sid, build=build):
                builds[sid, order] += 1
                return build(order)

            monkeypatch.setitem(constructors._BUILDERS, sid, counting)
        specs = {
            constructors.S_SPEC: SeriesId.S,
            constructors.L1_SPEC: SeriesId.L1,
            constructors.L2_SPEC: SeriesId.L2,
            constructors.L3_SPEC: SeriesId.L3,
        }
        lambert_sum = constructors.lambert_sum

        def counting_sum(spec, order):
            builds[specs[spec], order] += 1
            return lambert_sum(spec, order)

        monkeypatch.setattr(constructors, "lambert_sum", counting_sum)
        run_suite(50)
        assert builds == Counter({(sid, 50): 1 for sid in SeriesId})

    def test_a_builder_passed_in_is_asked_for_every_series(self):
        asked = set()

        def recording(sid, order):
            asked.add((sid, order))
            return named_series(sid, order)

        run_suite(50, builder=recording)
        assert asked == {(sid, 50) for sid in SeriesId}

    def test_no_built_series_outlives_its_run(self):
        assert all(r.passed for r in run_suite(50))
        failed = _failures(run_suite(50, builder=_corrupting(SeriesId.Y_EQ2, 5, 1)))
        assert list(failed) == [IdentityId.I1_Y_EQ2]
        assert all(r.passed for r in run_suite(50))


class TestRunStore:
    """The run `run_suite` and `check_identity` open is scoped to the call,
    and `D1` and `D2` read their true factors from it."""

    def test_no_run_outlives_its_call(self):
        run_suite(50)
        assert constructors._RUN.get() is None

        def boom(sid, order):
            raise RuntimeError("injected")

        with pytest.raises(SuiteError):
            run_suite(50, builder=boom)
        assert constructors._RUN.get() is None
        check_identity(IdentityId.I9_LEMMA2, 50)
        assert constructors._RUN.get() is None

    def test_products_in_a_run_equal_their_standalone_builds(self):
        orders = [*range(1, 201), 2000]
        with constructors._run():
            shared = [named_series(sid, n) for n in orders for sid in (SeriesId.D1, SeriesId.D2)]
        assert shared == [named_series(sid, n) for n in orders for sid in (SeriesId.D1, SeriesId.D2)]

    @pytest.mark.parametrize(
        "sid,ident", [(SeriesId.S, IdentityId.I7_S_EQ_QPHI), (SeriesId.L2, IdentityId.I8_SUM_DIFFERENCE)]
    )
    def test_a_corrupted_factor_fails_only_its_own_row(self, sid, ident):
        # D1 and D2 take the true S and L2 from the run, not from the builder
        assert list(_failures(run_suite(50, builder=_corrupting(sid, 3, 1)))) == [ident]


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


class TestOrderType:
    @pytest.mark.parametrize("order", [8.0, "9", True, None])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda order: run_suite(order),
            *(lambda order, i=i: check_identity(i, order) for i in IdentityId),
            lambda order: sign_resolve(IdentityId.I7_S_EQ_QPHI, order),
        ],
        ids=["run_suite", *(f"check_identity-{i.name}" for i in IdentityId), "sign_resolve"],
    )
    def test_non_int_order_rejected_by_name(self, entry, order):
        with pytest.raises(TypeError) as exc_info:
            entry(order)
        assert str(exc_info.value) == f"order must be an int, got {order!r}"


class TestIdentType:
    @pytest.mark.parametrize("ident", ["I1_Y_EQ2", "I7_S_EQ_QPHI", None, SeriesId.S])
    @pytest.mark.parametrize("entry", [check_identity, sign_resolve])
    def test_non_identity_rejected_by_name(self, entry, ident):
        # checked before the order, so a bad order does not hide it
        for order in (50, 7, "9"):
            with pytest.raises(TypeError) as exc_info:
                entry(ident, order)
            assert str(exc_info.value) == f"ident must be an IdentityId, got {ident!r}"


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

    def test_both_sides_vanish(self):
        def zero(sid, order):
            return TruncatedSeries.zero(order)

        with pytest.raises(NoConsistentSign) as exc_info:
            sign_resolve(IdentityId.I7_S_EQ_QPHI, 50, builder=zero)
        assert str(exc_info.value) == "both sides vanish; no witness coefficient exists"

    def test_zero_left_side_against_a_nonzero_right_side(self):
        def zero_s(sid, order):
            if sid is SeriesId.S:
                return TruncatedSeries.zero(order)
            return named_series(sid, order)

        with pytest.raises(NoConsistentSign) as exc_info:
            sign_resolve(IdentityId.I7_S_EQ_QPHI, 50, builder=zero_s)
        assert str(exc_info.value) == (
            "I7_S_EQ_QPHI: neither printed nor negated form holds; "
            "this indicates a constructor bug"
        )


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
                "_halving_lists",
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
        corrupt = _corrupt_windows if name == "_halving_lists" else _corrupt_side
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
        pairs = list(halving_windows(MAX_HALVING_WINDOW, 60))
        assert len(pairs) == MAX_HALVING_WINDOW
        for m, (full, twice) in enumerate(pairs, 1):
            assert full == s_window(1 - m, m, 60)
            assert twice == 2 * s_window(1, m, 60)
        # the row yields only a pair that differs, and these windows all agree
        assert list(_ROWS[IdentityId.I12_BILATERAL_HALVING](60, named_series)) == []

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

        solved = []
        solve = constructors._solve

        def recording(a, known=()):
            solved.append(len(a))
            return solve(a, known)

        monkeypatch.setattr(lambertq.harness, "entry29_rhs", counting)
        monkeypatch.setattr(constructors, "_solve", recording)
        with constructors._run():
            pairs = list(_ROWS[IdentityId.I13_ENTRY29_INSTANCE](120, named_series))
        assert calls == list(ENTRY29_TRIPLES)
        # the run shares each expansion: E(q^2)^4/E(q)^2 in 60 terms
        # serves triples 0 and 1 (which swap x and y) and 2*PHI;
        # E(q^3)^3/E(q) in 120 terms serves triples 2 and 3; triple 4 needs
        # the first through 120 terms, which serve triples 5 and 6 in q^2
        # and q^4
        assert solved == [60, 120, 120]
        by_triple = [pairs[0], *pairs[2:]]
        flagship = bilateral_sum(*ENTRY29_TRIPLES[0], 120)
        assert pairs[1][1:] == (flagship, 2 * named_series(SeriesId.PHI, 120))
        for (x, y, base), (label, lhs, rhs) in zip(ENTRY29_TRIPLES, by_triple):
            assert label == f"triple x={x}, y={y}, base={base}"
            assert lhs == bilateral_sum(x, y, base, 120)
            assert rhs == original(x, y, base, 120)


def _reference_halving(order, side, hit, index, delta):
    """I12 by the plain loop: each public window pair compared with
    `compare`, the pair of window `hit` with `side` (0 full, 1 twice)
    perturbed; the (status, first_mismatch, annotation) a report must carry."""
    for m, pair in enumerate(halving_windows(MAX_HALVING_WINDOW, order), 1):
        if m == hit:
            pair = list(pair)
            pair[side] = _bumped(pair[side], index, delta)
        c = compare(*pair, order)
        if not c.equal:
            return IdentityStatus.FAILED, c.first_mismatch, f"window M={m}"
    return IdentityStatus.VERIFIED, None, None


class TestHalvingRowInPlace:
    """I12 compares its running lists in place; each report equals the one
    the pairwise reference gives, with one window's side corrupted."""

    @pytest.mark.parametrize("order", [8, 50, 199, 200, 401])
    @pytest.mark.parametrize("hit", [1, 37, 200])
    @pytest.mark.parametrize("side", [0, 1], ids=["full", "twice"])
    @pytest.mark.parametrize("at_end", [False, True], ids=["index0", "last"])
    def test_corrupted_window_matches_the_reference(self, monkeypatch, order, hit, side, at_end):
        index = order - 1 if at_end else 0
        _corrupt_windows(monkeypatch, "_halving_lists", (1 - hit, hit), index, 1, side)
        r = check_identity(IdentityId.I12_BILATERAL_HALVING, order)
        expected = _reference_halving(order, side, hit, index, 1)
        assert expected[0] is IdentityStatus.FAILED
        assert (r.status, r.first_mismatch, r.annotation) == expected

    @pytest.mark.parametrize("order", [8, 50, 199, 200, 401])
    def test_true_windows_match_the_reference(self, order):
        r = check_identity(IdentityId.I12_BILATERAL_HALVING, order)
        assert (r.status, r.first_mismatch, r.annotation) == _reference_halving(order, 0, 0, 0, 0)


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
