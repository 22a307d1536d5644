"""Acceptance gate.

Ten criteria, each wired to the exact order it must hold at, with exact
integer comparison throughout. Every test prints one [PASS]/[FAIL] line
so the gate can be read off a terminal without digging through pytest
output; the assert underneath carries the same condition.
"""

import random
import time

import pytest

from lambertq import (
    ENTRY29_TRIPLES,
    IdentityId,
    IdentityStatus,
    L1_SPEC,
    LambertSpec,
    Parity,
    SeriesId,
    TruncatedSeries,
    bilateral_sum,
    check_identity,
    d2_split_product,
    entry29_rhs,
    lambert_sum,
    mul,
    named_series,
    oracle_expand,
    parity_of,
    phi,
    pochhammer,
    s_window,
    sign_resolve,
)
from lambertq.constructors import SignedMonomial
from references import oracle_divisor_lambert, oracle_partitions


@pytest.fixture
def announce(capsys):
    """Print one gate line per criterion, then enforce it."""

    def _announce(label: str, passed: bool, detail: str = ""):
        tag = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[{tag}] {label}{suffix}")
        assert passed, f"{label}{suffix}"

    return _announce


def test_criterion_01_parity_at_2000(announce):
    t0 = time.perf_counter()
    y = named_series(SeriesId.Y_DEF, 2000)
    verdict = parity_of(y)
    elapsed = time.perf_counter() - t0
    ok = verdict.kind is Parity.ODD and elapsed < 60.0
    announce(
        "criterion 1: Y has only odd-exponent terms through order 2000",
        ok,
        f"kind={verdict.kind.name}, {elapsed:.2f}s",
    )


def test_criterion_02_triple_agreement_at_1000(announce):
    y0 = named_series(SeriesId.Y_DEF, 1000)
    y1 = named_series(SeriesId.Y_EQ1, 1000)
    y2 = named_series(SeriesId.Y_EQ2, 1000)
    ok = y0 == y1 == y2
    announce("criterion 2: the three Y expansions agree through order 1000", ok)


def test_criterion_03_sign_substitution_at_1000(announce):
    a = named_series(SeriesId.A, 1000)
    b1 = named_series(SeriesId.B1, 1000)
    ok = b1 == a.compose_sign()
    announce("criterion 3: B1 equals A with q negated through order 1000", ok)


def test_criterion_04_product_identity_with_resolved_signs(announce):
    d1 = named_series(SeriesId.D1, 1000)
    d2 = named_series(SeriesId.D2, 1000)
    rhs = mul(phi(1000).shift(1), named_series(SeriesId.L3, 1000))
    product_holds = (d1 - d2) == rhs
    s7 = sign_resolve(IdentityId.I7_S_EQ_QPHI, 1000)
    s8 = sign_resolve(IdentityId.I8_SUM_DIFFERENCE, 1000)
    signs_ok = s7.sign == -1 and s8.sign == -1 and s7.sign * s8.sign == 1
    ok = product_holds and signs_ok
    announce(
        "criterion 4: D1 - D2 equals q*phi*L3 at order 1000, factor signs resolved",
        ok,
        f"signs {s7.sign:+d} at q^{s7.witness_index}, {s8.sign:+d} at q^{s8.witness_index}",
    )


def test_criterion_05_oracle_equivalence_at_300(announce):
    covered = [sid for sid in SeriesId if sid is not SeriesId.PHI]
    mismatched = [sid.value for sid in covered if oracle_expand(sid, 300) != named_series(sid, 300)]
    y = oracle_expand(SeriesId.Y_DEF, 300)
    spot_ok = (y[3], y[4], y[5]) == (-1, 0, -2)
    ok = not mismatched and spot_ok
    announce(
        f"criterion 5: brute-force oracle matches all {len(covered)} constructors it covers at order 300",
        ok,
        "spot q^3..q^5 = -1,0,-2" if spot_ok else f"mismatched={mismatched}",
    )


def test_criterion_06_decomposition_chain_at_1000(announce):
    n = 1000
    y = named_series(SeriesId.Y_DEF, n)
    z = named_series(SeriesId.Z, n)
    a = named_series(SeriesId.A, n)
    b = named_series(SeriesId.B, n)
    b1 = named_series(SeriesId.B1, n)
    d1 = named_series(SeriesId.D1, n)
    d2 = named_series(SeriesId.D2, n)
    checks = {
        "Z=A+B": z == a + b,
        "D1=Y+Z": d1 == y + z,
        "D2=B+B1": d2 == b + b1,
        "D2=product": d2 == d2_split_product(n),
        "Y=D1-D2-A+B1": y == d1 - d2 - a + b1,
    }
    failed = [name for name, good in checks.items() if not good]
    announce(
        "criterion 6: decomposition chain closes through order 1000",
        not failed,
        "all 5 equalities" if not failed else f"failed={failed}",
    )


def test_criterion_07_bilateral_instances_at_500(announce):
    bad = []
    for x, y, base in ENTRY29_TRIPLES:
        if bilateral_sum(x, y, base, 500) != entry29_rhs(x, y, base, 500):
            bad.append(f"({x}, {y}, {base})")
    fx, fy, fbase = ENTRY29_TRIPLES[0]
    flagship_ok = bilateral_sum(fx, fy, fbase, 500) == 2 * phi(500)
    ok = len(ENTRY29_TRIPLES) >= 5 and not bad and flagship_ok
    announce(
        "criterion 7: bilateral sum matches its product form on all parameter triples at order 500",
        ok,
        f"{len(ENTRY29_TRIPLES)} triples, flagship doubles phi" if ok else f"bad={bad}",
    )


def test_criterion_08_window_halving_at_500(announce):
    bad_m = [
        m
        for m in range(1, 201)
        if s_window(1 - m, m, 500) != 2 * s_window(1, m, 500)
    ]
    announce(
        "criterion 8: symmetric window halves exactly for every M up to 200 at order 500",
        not bad_m,
        "M=1..200" if not bad_m else f"first bad M={bad_m[0]}",
    )


def test_criterion_09_conjectured_identity_at_2000(announce):
    report = check_identity(IdentityId.I11_CONJ2, 2000)
    ok = (
        report.status is IdentityStatus.VERIFIED
        and report.annotation is not None
        and "unproven conjecture" in report.annotation
    )
    announce(
        "criterion 9: Y equals D2 - D1 through order 2000, flagged as evidence only",
        ok,
        f"status={report.status.value}",
    )


def test_criterion_10_kernel_robustness(announce):
    rng = random.Random(20260819)
    cases = 0
    failures = 0
    for _ in range(250):
        n = rng.randint(1, 64)
        f = TruncatedSeries([rng.randint(-9, 9) for _ in range(n)])
        g = TruncatedSeries([rng.randint(-9, 9) for _ in range(n)])
        h = TruncatedSeries([rng.randint(-9, 9) for _ in range(n)])
        u = TruncatedSeries([rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(n - 1)])
        if f * g != g * f:
            failures += 1
        cases += 1
        if (f + g) * h != f * h + g * h:
            failures += 1
        cases += 1
        if (f * g) * h != f * (g * h):
            failures += 1
        cases += 1
        if u * u.invert() != TruncatedSeries.one(n):
            failures += 1
        cases += 1

    partitions_ok = (
        oracle_partitions(1, 1, 500) == pochhammer(SignedMonomial(1, 1), 1, 500).invert()
    )
    divisor_ok = oracle_divisor_lambert(-1, 1, 500) == lambert_sum(L1_SPEC, 500)
    divisor2_ok = oracle_divisor_lambert(-1, 2, 500) == lambert_sum(
        LambertSpec(1, -1, 0, 2, 1, 0, 2), 500
    )

    big = TruncatedSeries([rng.randint(-9, 9) for _ in range(4096)])
    big2 = TruncatedSeries([rng.randint(-9, 9) for _ in range(4096)])
    t0 = time.perf_counter()
    prod = mul(big, big2)
    elapsed = time.perf_counter() - t0
    mul_ok = elapsed < 10.0 and prod[0] == big[0] * big2[0]

    ok = (
        cases >= 1000
        and failures == 0
        and partitions_ok
        and divisor_ok
        and divisor2_ok
        and mul_ok
    )
    announce(
        "criterion 10: kernel survives randomized algebra and large products",
        ok,
        f"{cases} cases, order-4096 product in {elapsed:.2f}s",
    )
