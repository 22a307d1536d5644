"""The exact bytes `lambertq verify` prints in table and CSV form.

JSON output has digests in golden.py; these literals pin the other two
renderings at order 60 for a passing suite (with the two sign flips), a
suite where a corrupted D2 makes three rows FAIL with their mismatch
columns filled, and a suite where one check raises. Timings are made
deterministic by a clock that ticks 2**-10 s per reading, so every
`elapsed_ms` reads 0.977.
"""

import itertools
from types import SimpleNamespace

import pytest

from lambertq import IdentityId, SeriesId, TruncatedSeries, named_series
from lambertq import cli, harness
from lambertq.cli import main

PASS_TABLE = (
    "identity                 status                    order  elapsed_ms  note\n"
    "I1_Y_EQ2                 VERIFIED                     60       0.977\n"
    "I2_Y_EQ1                 VERIFIED                     60       0.977\n"
    "I3_Z_EQ_A_PLUS_B         VERIFIED                     60       0.977\n"
    "I4_LEMMA1                VERIFIED                     60       0.977\n"
    "I5_D1_DECOMP             VERIFIED                     60       0.977\n"
    "I6_D2_FORMS              VERIFIED                     60       0.977\n"
    "I7_S_EQ_QPHI             VERIFIED_WITH_SIGN_FLIP      60       0.977  holds with right side negated; witness index 1\n"
    "I8_SUM_DIFFERENCE        VERIFIED_WITH_SIGN_FLIP      60       0.977  holds with right side negated; witness index 2\n"
    "I9_LEMMA2                VERIFIED                     60       0.977\n"
    "I10_CONJ1_PARITY         VERIFIED                     60       0.977  unproven conjecture: finite-order evidence only\n"
    "I11_CONJ2                VERIFIED                     60       0.977  unproven conjecture: finite-order evidence only\n"
    "I12_BILATERAL_HALVING    VERIFIED                     60       0.977\n"
    "I13_ENTRY29_INSTANCE     VERIFIED                     60       0.977  checked 7 parameter triples\n"
)
PASS_CSV = (
    "identity,order,status,mismatch_index,mismatch_lhs,mismatch_rhs,elapsed_ms,annotation\n"
    "I1_Y_EQ2,60,VERIFIED,,,,0.977,\n"
    "I2_Y_EQ1,60,VERIFIED,,,,0.977,\n"
    "I3_Z_EQ_A_PLUS_B,60,VERIFIED,,,,0.977,\n"
    "I4_LEMMA1,60,VERIFIED,,,,0.977,\n"
    "I5_D1_DECOMP,60,VERIFIED,,,,0.977,\n"
    "I6_D2_FORMS,60,VERIFIED,,,,0.977,\n"
    "I7_S_EQ_QPHI,60,VERIFIED_WITH_SIGN_FLIP,,,,0.977,holds with right side negated; witness index 1\n"
    "I8_SUM_DIFFERENCE,60,VERIFIED_WITH_SIGN_FLIP,,,,0.977,holds with right side negated; witness index 2\n"
    "I9_LEMMA2,60,VERIFIED,,,,0.977,\n"
    "I10_CONJ1_PARITY,60,VERIFIED,,,,0.977,unproven conjecture: finite-order evidence only\n"
    "I11_CONJ2,60,VERIFIED,,,,0.977,unproven conjecture: finite-order evidence only\n"
    "I12_BILATERAL_HALVING,60,VERIFIED,,,,0.977,\n"
    "I13_ENTRY29_INSTANCE,60,VERIFIED,,,,0.977,checked 7 parameter triples\n"
)
FAIL_TABLE = (
    "identity                 status                    order  elapsed_ms  note\n"
    "I1_Y_EQ2                 VERIFIED                     60       0.977\n"
    "I2_Y_EQ1                 VERIFIED                     60       0.977\n"
    "I3_Z_EQ_A_PLUS_B         VERIFIED                     60       0.977\n"
    "I4_LEMMA1                VERIFIED                     60       0.977\n"
    "I5_D1_DECOMP             VERIFIED                     60       0.977\n"
    "I6_D2_FORMS              FAILED                       60       0.977  first mismatch at q^7: -4 != -5; D2 vs B + B1\n"
    "I7_S_EQ_QPHI             VERIFIED_WITH_SIGN_FLIP      60       0.977  holds with right side negated; witness index 1\n"
    "I8_SUM_DIFFERENCE        VERIFIED_WITH_SIGN_FLIP      60       0.977  holds with right side negated; witness index 2\n"
    "I9_LEMMA2                FAILED                       60       0.977  first mismatch at q^7: 2 != 3\n"
    "I10_CONJ1_PARITY         VERIFIED                     60       0.977  unproven conjecture: finite-order evidence only\n"
    "I11_CONJ2                FAILED                       60       0.977  first mismatch at q^7: -3 != -2; unproven conjecture: finite-order evidence only\n"
    "I12_BILATERAL_HALVING    VERIFIED                     60       0.977\n"
    "I13_ENTRY29_INSTANCE     VERIFIED                     60       0.977  checked 7 parameter triples\n"
)
FAIL_CSV = (
    "identity,order,status,mismatch_index,mismatch_lhs,mismatch_rhs,elapsed_ms,annotation\n"
    "I1_Y_EQ2,60,VERIFIED,,,,0.977,\n"
    "I2_Y_EQ1,60,VERIFIED,,,,0.977,\n"
    "I3_Z_EQ_A_PLUS_B,60,VERIFIED,,,,0.977,\n"
    "I4_LEMMA1,60,VERIFIED,,,,0.977,\n"
    "I5_D1_DECOMP,60,VERIFIED,,,,0.977,\n"
    "I6_D2_FORMS,60,FAILED,7,-4,-5,0.977,D2 vs B + B1\n"
    "I7_S_EQ_QPHI,60,VERIFIED_WITH_SIGN_FLIP,,,,0.977,holds with right side negated; witness index 1\n"
    "I8_SUM_DIFFERENCE,60,VERIFIED_WITH_SIGN_FLIP,,,,0.977,holds with right side negated; witness index 2\n"
    "I9_LEMMA2,60,FAILED,7,2,3,0.977,\n"
    "I10_CONJ1_PARITY,60,VERIFIED,,,,0.977,unproven conjecture: finite-order evidence only\n"
    "I11_CONJ2,60,FAILED,7,-3,-2,0.977,unproven conjecture: finite-order evidence only\n"
    "I12_BILATERAL_HALVING,60,VERIFIED,,,,0.977,\n"
    "I13_ENTRY29_INSTANCE,60,VERIFIED,,,,0.977,checked 7 parameter triples\n"
)
RAISE_TABLE = (
    "identity                 status                    order  elapsed_ms  note\n"
    "I1_Y_EQ2                 VERIFIED                     60       0.977\n"
    "I2_Y_EQ1                 VERIFIED                     60       0.977\n"
    "I3_Z_EQ_A_PLUS_B         VERIFIED                     60       0.977\n"
    "I4_LEMMA1                VERIFIED                     60       0.977\n"
    "I5_D1_DECOMP             VERIFIED                     60       0.977\n"
    "I6_D2_FORMS              VERIFIED                     60       0.977\n"
    "I7_S_EQ_QPHI             VERIFIED_WITH_SIGN_FLIP      60       0.977  holds with right side negated; witness index 1\n"
    "I8_SUM_DIFFERENCE        VERIFIED_WITH_SIGN_FLIP      60       0.977  holds with right side negated; witness index 2\n"
    "I10_CONJ1_PARITY         VERIFIED                     60       0.977  unproven conjecture: finite-order evidence only\n"
    "I11_CONJ2                VERIFIED                     60       0.977  unproven conjecture: finite-order evidence only\n"
    "I12_BILATERAL_HALVING    VERIFIED                     60       0.977\n"
    "I13_ENTRY29_INSTANCE     VERIFIED                     60       0.977  checked 7 parameter triples\n"
)
RAISE_CSV = (
    "identity,order,status,mismatch_index,mismatch_lhs,mismatch_rhs,elapsed_ms,annotation\n"
    "I1_Y_EQ2,60,VERIFIED,,,,0.977,\n"
    "I2_Y_EQ1,60,VERIFIED,,,,0.977,\n"
    "I3_Z_EQ_A_PLUS_B,60,VERIFIED,,,,0.977,\n"
    "I4_LEMMA1,60,VERIFIED,,,,0.977,\n"
    "I5_D1_DECOMP,60,VERIFIED,,,,0.977,\n"
    "I6_D2_FORMS,60,VERIFIED,,,,0.977,\n"
    "I7_S_EQ_QPHI,60,VERIFIED_WITH_SIGN_FLIP,,,,0.977,holds with right side negated; witness index 1\n"
    "I8_SUM_DIFFERENCE,60,VERIFIED_WITH_SIGN_FLIP,,,,0.977,holds with right side negated; witness index 2\n"
    "I10_CONJ1_PARITY,60,VERIFIED,,,,0.977,unproven conjecture: finite-order evidence only\n"
    "I11_CONJ2,60,VERIFIED,,,,0.977,unproven conjecture: finite-order evidence only\n"
    "I12_BILATERAL_HALVING,60,VERIFIED,,,,0.977,\n"
    "I13_ENTRY29_INSTANCE,60,VERIFIED,,,,0.977,checked 7 parameter triples\n"
)


def _corrupting(sid, index, delta):
    def build(s, order):
        f = named_series(s, order)
        if s is sid:
            cs = list(f.coefficients)
            cs[index] += delta
            return TruncatedSeries(cs)
        return f

    return build


@pytest.fixture(autouse=True)
def ticking_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 1024))


def _verify_all(capsys, fmt):
    code = main(["verify", "--all", "--order", "60", "--format", fmt])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("fmt,expected", [("table", PASS_TABLE), ("csv", PASS_CSV)])
def test_passing_suite(capsys, fmt, expected):
    assert _verify_all(capsys, fmt) == (0, expected, "")


@pytest.mark.parametrize("fmt,expected", [("table", FAIL_TABLE), ("csv", FAIL_CSV)])
def test_failing_rows_fill_the_mismatch_columns(capsys, monkeypatch, fmt, expected):
    run_suite = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda order: run_suite(order, _corrupting(SeriesId.D2, 7, 1)))
    assert _verify_all(capsys, fmt) == (1, expected, "")


@pytest.mark.parametrize("fmt,expected", [("table", RAISE_TABLE), ("csv", RAISE_CSV)])
def test_raising_check_drops_its_row_and_exits_three(capsys, monkeypatch, fmt, expected):
    check_identity = harness.check_identity

    def raising(ident, *args, **kwargs):
        if ident is IdentityId.I9_LEMMA2:
            raise RuntimeError("injected fault")
        return check_identity(ident, *args, **kwargs)

    monkeypatch.setattr(harness, "check_identity", raising)
    err = "error: I9_LEMMA2: RuntimeError: injected fault\n"
    assert _verify_all(capsys, fmt) == (3, expected, err)
