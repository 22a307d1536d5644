"""Registry of the thirteen checked identities, with exact verification.

Every check builds both sides as truncated integer series and compares
coefficients; there is no tolerance anywhere. Two of the displays (I7, I8)
are sign-ambiguous in print, so their checker measures the sign instead of
assuming it and reports VERIFIED_WITH_SIGN_FLIP when the right side had to
be negated. The two conjecture checks (I10, I11) only ever claim
finite-order evidence.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Callable, Iterable, Optional

from .constructors import (
    SeriesId,
    SignedMonomial,
    _halving_lists,
    _run,
    bilateral_sum,
    d2_split_product,
    entry29_rhs,
    named_series,
    s_window,  # not called here, but perfbench/spans.py wraps harness.s_window
)
from .errors import LambertQError, NoConsistentSign, OrderTooSmall
from .series import (
    Mismatch,
    TruncatedSeries,
    _check_ints,
    _Record,
    compare,
    mul,
    parity_of,
)

__all__ = [
    "IdentityId",
    "IdentityStatus",
    "IdentityReport",
    "SignResolution",
    "SuiteError",
    "ENTRY29_TRIPLES",
    "MAX_HALVING_WINDOW",
    "check_identity",
    "run_suite",
    "sign_resolve",
]

Builder = Callable[[SeriesId, int], TruncatedSeries]


class IdentityId(Enum):
    I1_Y_EQ2 = "I1_Y_EQ2"
    I2_Y_EQ1 = "I2_Y_EQ1"
    I3_Z_EQ_A_PLUS_B = "I3_Z_EQ_A_PLUS_B"
    I4_LEMMA1 = "I4_LEMMA1"
    I5_D1_DECOMP = "I5_D1_DECOMP"
    I6_D2_FORMS = "I6_D2_FORMS"
    I7_S_EQ_QPHI = "I7_S_EQ_QPHI"
    I8_SUM_DIFFERENCE = "I8_SUM_DIFFERENCE"
    I9_LEMMA2 = "I9_LEMMA2"
    I10_CONJ1_PARITY = "I10_CONJ1_PARITY"
    I11_CONJ2 = "I11_CONJ2"
    I12_BILATERAL_HALVING = "I12_BILATERAL_HALVING"
    I13_ENTRY29_INSTANCE = "I13_ENTRY29_INSTANCE"


class IdentityStatus(Enum):
    VERIFIED = "VERIFIED"
    VERIFIED_WITH_SIGN_FLIP = "VERIFIED_WITH_SIGN_FLIP"
    FAILED = "FAILED"


# the two displays whose printed sign cannot be trusted
SIGN_AMBIGUOUS = frozenset({IdentityId.I7_S_EQ_QPHI, IdentityId.I8_SUM_DIFFERENCE})

# fixed published parameter list for I13; first entry is the 2*PHI instance
ENTRY29_TRIPLES: tuple[tuple[SignedMonomial, SignedMonomial, int], ...] = (
    (SignedMonomial(-1, 1), SignedMonomial(1, 1), 2),
    (SignedMonomial(1, 1), SignedMonomial(-1, 1), 2),
    (SignedMonomial(1, 1), SignedMonomial(1, 1), 3),
    (SignedMonomial(-1, 1), SignedMonomial(1, 2), 3),
    (SignedMonomial(1, 1), SignedMonomial(1, 1), 4),
    (SignedMonomial(1, 1), SignedMonomial(1, 2), 4),
    (SignedMonomial(-1, 2), SignedMonomial(1, 2), 4),
)

MAX_HALVING_WINDOW = 200

UNPROVEN_NOTE = "unproven conjecture: finite-order evidence only"


class IdentityReport(_Record):
    """Outcome of one check. Under `run_suite`, `elapsed_seconds` counts a
    named series only in the first report whose check built it, `D1`'s and
    `D2`'s factors included; later checks read it from the run."""

    __slots__ = ("identity", "order_checked", "status", "first_mismatch", "elapsed_seconds", "annotation")

    def __init__(
        self,
        identity: IdentityId,
        order_checked: int,
        status: IdentityStatus,
        first_mismatch: Optional[Mismatch],
        elapsed_seconds: float,
        annotation: Optional[str] = None,
    ) -> None:
        if status is IdentityStatus.FAILED and first_mismatch is None:
            raise ValueError("FAILED report needs a first_mismatch")
        if status is not IdentityStatus.FAILED and first_mismatch is not None:
            raise ValueError("passing report must not carry a mismatch")
        if status is IdentityStatus.VERIFIED_WITH_SIGN_FLIP and identity not in SIGN_AMBIGUOUS:
            raise ValueError(f"{identity.value} is not a sign-ambiguous identity")
        self._set(identity, order_checked, status, first_mismatch, elapsed_seconds, annotation)

    @property
    def passed(self) -> bool:
        return self.status is not IdentityStatus.FAILED


class SignResolution(_Record):
    __slots__ = ("identity", "sign", "witness_index", "order_checked")

    def __init__(self, identity: IdentityId, sign: int, witness_index: int, order_checked: int) -> None:
        self._set(identity, sign, witness_index, order_checked)


class SuiteError(LambertQError):
    """One or more identity checks raised; carries whatever completed."""

    def __init__(self, reports: list[IdentityReport], errors: list[tuple[IdentityId, Exception]]):
        self.reports = reports
        self.errors = errors
        names = ", ".join(f"{i.value}: {e}" for i, e in errors)
        super().__init__(f"{len(errors)} identity check(s) raised ({names})")


# -- the identity table ---------------------------------------------------------

# One row per identity: it lazily yields the (label, lhs, rhs) pairs the
# identity asserts, so a check that stops at its first mismatch builds nothing
# after it. The label names the failing pair; None marks a single pair. Sides
# are module globals looked up at call time, so patching them reaches here.
# I12's row compares its 200 running windows in place, one list `==` each,
# and yields only the first pair that differs, as series; a passing I12
# yields nothing.
Pair = tuple[Optional[str], TruncatedSeries, TruncatedSeries]
Rows = Callable[[int, Builder], Iterable[Pair]]

S = SeriesId


def _d2_rows(n: int, b: Builder) -> Iterable[Pair]:
    d2 = b(S.D2, n)
    yield "D2 vs B + B1", d2, b(S.B, n) + b(S.B1, n)
    yield "D2 vs split product", d2, d2_split_product(n)


def _halving_rows(n: int, b: Builder) -> Iterable[Pair]:
    for m_top, (full, twice) in enumerate(_halving_lists(MAX_HALVING_WINDOW, n), 1):
        if full != twice:
            yield f"window M={m_top}", TruncatedSeries._trusted(full), TruncatedSeries._trusted(twice)
            return


def _entry29_rows(n: int, b: Builder) -> Iterable[Pair]:
    # sides with one primitive eta signature, the swapped triple among them,
    # share one expansion through the run
    for x, y, base in ENTRY29_TRIPLES:
        label = f"triple x={x}, y={y}, base={base}"
        lhs = bilateral_sum(x, y, base, n)
        yield label, lhs, entry29_rhs(x, y, base, n)
        if (x, y, base) == ENTRY29_TRIPLES[0]:
            yield label, lhs, 2 * b(S.PHI, n)


# I10 is absent: it is a parity claim about one series, not an equation.
_ROWS: dict[IdentityId, Rows] = {
    IdentityId.I1_Y_EQ2: lambda n, b: [(None, b(S.Y_DEF, n), b(S.Y_EQ2, n))],
    IdentityId.I2_Y_EQ1: lambda n, b: [(None, b(S.Y_DEF, n), b(S.Y_EQ1, n))],
    IdentityId.I3_Z_EQ_A_PLUS_B: lambda n, b: [(None, b(S.Z, n), b(S.A, n) + b(S.B, n))],
    IdentityId.I4_LEMMA1: lambda n, b: [(None, b(S.B1, n), b(S.A, n).compose_sign())],
    IdentityId.I5_D1_DECOMP: lambda n, b: [(None, b(S.D1, n), b(S.Y_DEF, n) + b(S.Z, n))],
    IdentityId.I6_D2_FORMS: _d2_rows,
    IdentityId.I7_S_EQ_QPHI: lambda n, b: [(None, b(S.S, n), b(S.PHI, n).shift(1))],
    IdentityId.I8_SUM_DIFFERENCE: lambda n, b: [(None, b(S.L1, n) - b(S.L2, n), b(S.L3, n))],
    IdentityId.I9_LEMMA2: lambda n, b: [
        (None, b(S.D1, n) - b(S.D2, n), mul(b(S.PHI, n).shift(1), b(S.L3, n)))
    ],
    IdentityId.I11_CONJ2: lambda n, b: [(None, b(S.Y_DEF, n), b(S.D2, n) - b(S.D1, n))],
    IdentityId.I12_BILATERAL_HALVING: _halving_rows,
    IdentityId.I13_ENTRY29_INSTANCE: _entry29_rows,
}

# annotations of a passing report; a failing one carries its pair's label
# instead, when the pair has one
_PASS_NOTES = {
    IdentityId.I10_CONJ1_PARITY: UNPROVEN_NOTE,
    IdentityId.I11_CONJ2: UNPROVEN_NOTE,
    IdentityId.I13_ENTRY29_INSTANCE: f"checked {len(ENTRY29_TRIPLES)} parameter triples",
}


# -- checkers --------------------------------------------------------------------


def _check_call(needs: str, order: int, *idents: object) -> None:
    """Reject each ident that is not an IdentityId, and an order as
    `_check_ints` does, by TypeError; and an order below 8 by OrderTooSmall,
    whose message `needs` leads, such as "suite needs"."""
    for ident in idents:
        if not isinstance(ident, IdentityId):
            raise TypeError(f"ident must be an IdentityId, got {ident!r}")
    _check_ints(order=order)
    if order < 8:
        raise OrderTooSmall(f"{needs} order >= 8, got {order}")


@_run()
def check_identity(ident: IdentityId, order: int, builder: Builder = named_series) -> IdentityReport:
    """Check one identity coefficient-exactly through q^(order-1).

    `builder` supplies each named series a row reads, at every read; tests
    pass builders that inject faults. The check runs in a run (`_run`), the
    one `run_suite` opens if any, which keeps each named series and eta
    expansion once; `D1` and `D2` read the true `S`, `L1` and `L2` from it,
    whatever the builder.
    """
    _check_call("identity checks need", order, ident)
    start = time.perf_counter()

    status = IdentityStatus.VERIFIED
    mismatch: Optional[Mismatch] = None
    annotation = _PASS_NOTES.get(ident)

    if ident is IdentityId.I10_CONJ1_PARITY:
        y = builder(SeriesId.Y_DEF, order)
        idx = parity_of(y).first_nonzero_even
        if idx is not None:
            status, mismatch, annotation = IdentityStatus.FAILED, Mismatch(idx, y[idx], 0), None
    else:
        for label, lhs, rhs in _ROWS[ident](order, builder):
            c = compare(lhs, rhs, order)
            if c.equal:
                continue
            lead = c.first_mismatch.index
            # lhs = -rhs through `order` makes `lead` lhs's first nonzero index
            if ident in SIGN_AMBIGUOUS and compare(lhs, -rhs, order).equal:
                status = IdentityStatus.VERIFIED_WITH_SIGN_FLIP
                annotation = f"holds with right side negated; witness index {lead}"
            else:
                status, mismatch = IdentityStatus.FAILED, c.first_mismatch
                annotation = label or annotation
            break

    elapsed = time.perf_counter() - start
    return IdentityReport(ident, order, status, mismatch, elapsed, annotation)


def run_suite(order: int, builder: Builder = named_series) -> list[IdentityReport]:
    """Check all thirteen identities at one order, in enum order.

    A check that raises does not stop the rest; the exceptions are
    collected and re-raised at the end as one SuiteError carrying the
    completed reports.
    """
    _check_call("suite needs", order)
    reports: list[IdentityReport] = []
    errors: list[tuple[IdentityId, Exception]] = []
    with _run():
        for ident in IdentityId:
            try:
                reports.append(check_identity(ident, order, builder))
            except Exception as exc:  # noqa: BLE001 - aggregation point
                errors.append((ident, exc))
    if errors:
        raise SuiteError(reports, errors)
    return reports


def sign_resolve(
    ident: IdentityId, order: int, builder: Builder = named_series
) -> SignResolution:
    """Measure whether a sign-ambiguous display holds as printed (+1) or
    negated (-1), with the first nonzero coefficient as witness."""
    _check_call("sign resolution needs", order, ident)
    if ident not in SIGN_AMBIGUOUS:
        raise ValueError(f"sign resolution applies to I7/I8 only, not {ident.value}")
    [(_, lhs, rhs)] = _ROWS[ident](order, builder)
    printed, negated = compare(lhs, rhs, order), compare(lhs, -rhs, order)
    if printed.equal and negated.equal:
        raise NoConsistentSign("both sides vanish; no witness coefficient exists")
    if not (printed.equal or negated.equal):
        raise NoConsistentSign(
            f"{ident.value}: neither printed nor negated form holds; "
            "this indicates a constructor bug"
        )
    # where lhs = +-rhs, the other form first differs at the first nonzero of lhs
    other = negated if printed.equal else printed
    return SignResolution(ident, 1 if printed.equal else -1, other.first_mismatch.index, order)
