"""Checks for the brute-force oracle, plus oracle-vs-constructor agreement.

The short expected vectors below were expanded term by term from the
defining multi-sums, not by the oracle or the constructors, so they pin
down the enumeration itself rather than echoing it. The displays written
term by term are the reference the oracle's family rows must expand to.
"""

import ast
import random
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest

from lambertq import (
    OrderTooSmall,
    SeriesId,
    UnsupportedSeries,
    named_series,
    oracle_expand,
    oracle_phi,
    phi,
    pochhammer,
)
from lambertq.constructors import SignedMonomial
from lambertq import oracle
from lambertq.oracle import _DISPLAYS, _SHORT, _enumerate, _mark_copies, _table_cut
from references import oracle_divisor_lambert, oracle_partition_count, oracle_partitions

# every named series but PHI has a display the oracle enumerates
ORACLE_SERIES = tuple(sid for sid in SeriesId if sid is not SeriesId.PHI)

HAND_EXPANDED = {
    SeriesId.Y_DEF: [0, 0, 0, -1, 0, -2, 0, -3, 0, -5, 0, -4],
    SeriesId.Z: [0, 0, 1, 1, 4, 1, 7, 1, 10, 2, 15, -2],
    SeriesId.A: [0, 0, 1, 1, 3, 2, 5, 3, 6, 5, 9, 4],
    SeriesId.B: [0, 0, 0, 0, 1, -1, 2, -2, 4, -3, 6, -6],
    SeriesId.B1: [0, 0, 1, -1, 3, -2, 5, -3, 6, -5, 9, -4],
    # Y_EQ1 and Y_EQ2 come out equal to Y_DEF (I1, I2), and D1, D2 equal the
    # products of the vectors of S and L1, S and L2 below (I7, I8)
    SeriesId.Y_EQ1: [0, 0, 0, -1, 0, -2, 0, -3, 0, -5, 0, -4],
    SeriesId.Y_EQ2: [0, 0, 0, -1, 0, -2, 0, -3, 0, -5, 0, -4],
    SeriesId.D1: [0, 0, 1, 0, 4, -1, 7, -2, 10, -3, 15, -6],
    SeriesId.D2: [0, 0, 1, -1, 4, -3, 7, -5, 10, -8, 15, -10],
    # S: -q/(1-q) + q^2/(1-q^3) - q^3/(1-q^5) + q^4/(1-q^7) - q^5 + ... - q^11,
    # so q^11 gets -1 (k=1) + 1 (k=2) + 1 (k=4) - 1 (k=11)
    SeriesId.S: [0, -1, 0, -2, 0, -1, 0, -2, 0, -2, 0, 0],
    # L1 and L2: q^n gets Sum_{k|n} (-1)^k, over the k with n/k odd for L2
    SeriesId.L1: [0, -1, 0, -2, 1, -2, 0, -2, 2, -3, 0, -2],
    SeriesId.L2: [0, -1, 1, -2, 1, -2, 2, -2, 1, -3, 2, -2],
    # L3: q^(2n) gets Sum_{k|n} (-1)^(k+1)
    SeriesId.L3: [0, 0, 1, 0, 0, 0, 2, 0, -1, 0, 2, 0],
}

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]


@pytest.mark.parametrize("sid", list(HAND_EXPANDED))
def test_hand_expanded_vectors(sid):
    assert list(oracle_expand(sid, 12)) == HAND_EXPANDED[sid]


def test_supported_ids_are_every_display_but_phi():
    supported = set()
    for sid in SeriesId:
        try:
            oracle_expand(sid, 4)
        except UnsupportedSeries as exc:
            assert str(exc) == f"oracle supports {sorted(s.value for s in ORACLE_SERIES)}, not {sid.value}"
        else:
            supported.add(sid)
    assert supported == set(ORACLE_SERIES)


@pytest.mark.parametrize("sid", [SeriesId.PHI, "Z", None, ["Z"]])
def test_unsupported_ids_rejected(sid):
    with pytest.raises(UnsupportedSeries):
        oracle_expand(sid, 10)


# Each display of the oracle written term by term: one term
# (w, a, s1, b, s2, c), standing for w*q^a/((1 - s1*q^b)(1 - s2*q^c)), per
# index tuple with a <= top. Every family row must expand to these terms.
def _term_lattice(t):
    return lambda top: (
        ((-1) ** (k + l), k + l, 1, 2 * k - 1, 1, t * l)
        for k in range(1, top)
        for l in range(1, top - k + 1)
    )


TERM_DISPLAYS = {
    SeriesId.Y_DEF: lambda top: (
        ((-1) ** m, 2 * m * n + m, -1, n, 1, 2 * m - 1)
        for m in range(1, top // 3 + 1)
        for n in range(1, (top - m) // (2 * m) + 1)
    ),
    SeriesId.Y_EQ1: lambda top: (
        ((-1) ** (m + k), 3 * m + k, 1, 2 * m - 1, 1, 2 * m + k)
        for m in range(1, top // 3 + 1)
        for k in range(top - 3 * m + 1)
    ),
    SeriesId.Y_EQ2: lambda top: (
        (-1, k + n, -1, 2 * k - 1, -1, n)
        for k in range(2, top)
        for n in range(1, min(k - 1, top - k) + 1)
    ),
    SeriesId.Z: lambda top: (
        ((-1) ** (m + k), m + k, 1, 2 * m - 1, 1, k)
        for m in range(1, top)
        for k in range(1, min(2 * m - 1, top - m) + 1)
    ),
    SeriesId.A: lambda top: (
        (1, j + 1, -1, 2 * i + 1, -1, 2 * j + 1) for i in range(top - 1) for j in range(i + 1, top)
    ),
    SeriesId.B: lambda top: (
        (1, i + 2 * j + 2, -1, 2 * i + 1, -1, 2 * j + 1)
        for i in range(top // 3)
        for j in range(i + 1, (top - i - 2) // 2 + 1)
    ),
    SeriesId.B1: lambda top: (
        (1, i + 2 * j + 2, -1, 2 * i + 1, -1, 2 * j + 1)
        for i in range(top - 1)
        for j in range(min(i, (top - i - 2) // 2) + 1)
    ),
    SeriesId.D1: _term_lattice(1),
    SeriesId.D2: _term_lattice(2),
    SeriesId.S: lambda top: (((-1) ** k, k, 1, 2 * k - 1, 1, None) for k in range(1, top + 1)),
    SeriesId.L1: lambda top: (((-1) ** k, k, 1, k, 1, None) for k in range(1, top + 1)),
    SeriesId.L2: lambda top: (((-1) ** k, k, 1, 2 * k, 1, None) for k in range(1, top + 1)),
    SeriesId.L3: lambda top: (((-1) ** (k + 1), 2 * k, 1, 2 * k, 1, None) for k in range(1, top // 2 + 1)),
}


def _family_terms(family):
    """The terms (w, a, s1, b, s2, c) of a family, t = 0..count-1."""
    w, ws, a, da, s1, b, db, s2, c, count = family
    return [(w * ws**t, a + t * da, s1, b + t * db, s2, c) for t in range(count)]


def _normal(term):
    """A term with its two factors in one order: (1-x)(1-y) = (1-y)(1-x)."""
    w, a, s1, b, s2, c = term
    if c is not None and (c, s2) < (b, s1):
        return (w, a, s2, c, s1, b)
    return term


def _single(term):
    """The family of count 1 whose one term is `term`."""
    w, a, s1, b, s2, c = term
    return (w, 1, a, 0, s1, b, 0, s2, c, 1)


@pytest.mark.parametrize("sid", ORACLE_SERIES)
def test_family_rows_expand_to_the_term_displays(sid):
    for order in [*range(1, 121), 300, 301]:
        families = _DISPLAYS[sid](order - 1)
        got = Counter(_normal(term) for family in families for term in _family_terms(family))
        assert got == Counter(map(_normal, TERM_DISPLAYS[sid](order - 1))), order


# Single terms w*q^a/((1 - s1*q^b)(1 - s2*q^c)) expanded by hand as
# Sum_{u,v>=0} w * s1^u * s2^v * q^(a+ub+vc), keyed by (w, a, s1, b, s2, c),
# and each enumerated as the family of count 1 that holds it.
HAND_EXPANDED_TERMS = {
    # b < c: q^1, q^3 s1, q^4 s2, q^5, q^6 s1*s2, q^7 (s1 + 1), q^8 s2, q^9 (1 + s1)
    (1, 1, 1, 2, 1, 3): [0, 1, 0, 1, 1, 1, 1, 2, 1, 2],
    (1, 1, 1, 2, -1, 3): [0, 1, 0, 1, -1, 1, -1, 2, -1, 2],
    (1, 1, -1, 2, 1, 3): [0, 1, 0, -1, 1, 1, -1, 0, 1, 0],
    (1, 1, -1, 2, -1, 3): [0, 1, 0, -1, -1, 1, 1, 0, -1, 0],
    # b > c: the same lattices with the factors written the other way round
    (1, 1, 1, 3, -1, 2): [0, 1, 0, -1, 1, 1, -1, 0, 1, 0],
    (-2, 1, -1, 3, 1, 2): [0, -2, 0, -2, 2, -2, 2, -4, 2, -4],
    # b == c: q^(2n) gets Sum_{u+v=n} s1^u s2^v
    (1, 0, 1, 2, 1, 2): [1, 0, 2, 0, 3, 0, 4, 0, 5, 0],
    (1, 0, 1, 2, -1, 2): [1, 0, 0, 0, 1, 0, 0, 0, 1, 0],
    (1, 0, -1, 2, -1, 2): [1, 0, -2, 0, 3, 0, -4, 0, 5, 0],
    # no second factor, whatever its sign says
    (3, 2, -1, 3, 1, None): [0, 0, 3, 0, 0, -3, 0, 0, 3, 0],
    (1, 1, 1, 4, -1, None): [0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    # a term that starts on the last kept exponent, and one past it
    (5, 9, -1, 1, -1, 1): [0, 0, 0, 0, 0, 0, 0, 0, 0, 5],
    (5, 10, 1, 1, 1, 1): [0] * 10,
}


@pytest.mark.parametrize("term", list(HAND_EXPANDED_TERMS))
def test_enumerate_single_terms(term):
    assert _enumerate([0] * 10, [_single(term)]) == HAND_EXPANDED_TERMS[term]


@pytest.mark.parametrize("term", list(HAND_EXPANDED_TERMS))
def test_enumerate_single_terms_through_stride_tables(term):
    # the second factor's run goes through a stride table below the cut,
    # _table_cut(10) = 4 and _table_cut(80) = 12, and straight above it; at
    # order 80 the first ten coefficients are the same as at 10
    assert _enumerate([0] * 80, [_single(term)])[:10] == HAND_EXPANDED_TERMS[term]


def _reference(coeffs, families):
    """Add w * ws^t * s1^u * s2^v to q^(a + t*da + u*(b + t*db) + v*c) for
    every term t of every family and every u, v >= 0, one point at a time."""
    order = len(coeffs)
    for family in families:
        for w, a, s1, b, s2, c in _family_terms(family):
            c = order if c is None else c
            u = 0
            while a + u * b < order:
                v = 0
                while a + u * b + v * c < order:
                    coeffs[a + u * b + v * c] += w * s1**u * s2**v
                    v += 1
                u += 1
    return coeffs


# (order, term) pairs on the edges of the stride tables, where
# _table_cut(order) (9 at 40, 12 at 64) is the first fixed step added
# straight; each runs as a family of count 1
EDGE_TERMS = [
    *((40, (1, 0, s1, 3, s2, 1)) for s1 in (1, -1) for s2 in (1, -1)),  # c = 1
    *((40, (-2, 1, s1, 3, s2, 3)) for s1 in (1, -1) for s2 in (1, -1)),  # b == c
    *((64, (3, 2, s1, 9, s2, 11)) for s1 in (1, -1) for s2 in (1, -1)),  # c on _table_cut(64) - 1
    *((64, (3, 2, s1, 11, s2, 12)) for s1 in (1, -1) for s2 in (1, -1)),  # c on _table_cut(64)
    (40, (1, 37, 1, 50, -1, 4)),  # a + c >= order: the second mark falls off
    (40, (1, 35, -1, 2, -1, 4)),  # and falls off on the later outer steps
    (40, (7, 39, -1, 1, -1, 1)),  # a = order - 1
    (40, (7, 40, -1, 1, -1, 1)),  # a >= order
    (40, (7, 45, 1, 2, 1, 1)),
    (40, (5, 3, -1, 2, 1, None)),  # no second factor
    (40, (5, 3, 1, 60, -1, None)),
    (120, (10**40, 1, -1, 2, -1, 3)),
    (120, (-(10**40), 4, 1, 9, -1, 2)),
]


@pytest.mark.parametrize("order,term", EDGE_TERMS)
def test_enumerate_matches_reference_on_edge_terms(order, term):
    assert _enumerate([0] * order, [_single(term)]) == _reference([0] * order, [_single(term)])


# (order, family) pairs on the edges of the family walk: at order 200 the
# table cut _table_cut(200) is 21, and a row of fewer than _SHORT terms ends
# the rows
EDGE_FAMILIES = [
    pytest.param(200, (3, 1, 5, 2, -1, 7, 1, 1, 3, 1), id="count-1"),
    pytest.param(200, (3, -1, 5, 2, -1, 7, 1, 1, 30, 1), id="count-1-long-c"),
    pytest.param(200, (1, -1, 4, 0, 1, 5, 0, -1, 3, 3), id="da-db-0-few"),
    pytest.param(200, (1, -1, 4, 0, 1, 5, 0, -1, 3, _SHORT + 7), id="da-db-0-odd"),
    pytest.param(200, (2, 1, 4, 0, -1, 5, 0, 1, None, _SHORT + 6), id="da-db-0-no-c"),
    pytest.param(200, (1, 1, 2, 0, -1, 3, 1, -1, 2, 40), id="da-0"),
    pytest.param(200, (1, -1, 1, 1, 1, 2, 1, 1, 3, 61), id="ws-minus-odd"),
    pytest.param(200, (1, -1, 1, 1, 1, 2, 1, 1, 3, 60), id="ws-minus-even"),
    pytest.param(200, (-1, -1, 3, 2, -1, 3, 2, -1, 5, 47), id="ws-minus-odd-s-minus"),
    pytest.param(200, (-1, -1, 3, 2, -1, 3, 2, -1, 5, 48), id="ws-minus-even-s-minus"),
    *(
        pytest.param(200, (2, ws, 1, 1, s1, 25, 1, s2, c, 80), id=f"c-{c}-ws{ws}-s1{s1}-s2{s2}")
        for c in (24, 25, 26)
        for ws in (1, -1)
        for s1 in (1, -1)
        for s2 in (1, -1)
    ),
    *(
        pytest.param(200, (1, ws, 1, 1, s1, 1, 2, 1, None, 199), id=f"no-c-ws{ws}-s1{s1}")
        for ws in (1, -1)
        for s1 in (1, -1)
    ),
    pytest.param(200, (1, 1, 150, 1, 1, 60, 1, -1, 20, 40), id="second-mark-past-end"),
    pytest.param(200, (1, -1, 170, 1, -1, 7, 1, -1, 24, 30), id="second-mark-past-end-later"),
    pytest.param(200, (7, -1, 199, 1, -1, 1, 1, -1, 1, 5), id="first-point-order-1"),
    pytest.param(200, (7, -1, 200, 1, -1, 1, 1, -1, 1, 5), id="first-point-order"),
    pytest.param(200, (7, 1, 230, 1, 1, 1, 1, 1, 1, 5), id="first-point-past-order"),
    *(
        pytest.param(200, (1, ws, 0, 1, -1, 1, 1, 1, 4, count), id=f"count-{count}-ws{ws}")
        for count in (_SHORT - 1, _SHORT, _SHORT + 1)
        for ws in (1, -1)
    ),
    pytest.param(200, (10**40, -1, 1, 1, -1, 2, 1, -1, 3, 90), id="weight-1e40"),
    pytest.param(200, (-(10**40), -1, 4, 3, 1, 9, 2, -1, 30, 50), id="weight-minus-1e40"),
]


@pytest.mark.parametrize("order,family", EDGE_FAMILIES)
def test_enumerate_matches_reference_on_edge_families(order, family):
    assert _enumerate([0] * order, [family]) == _reference([0] * order, [family])


@pytest.mark.parametrize("s1", [1, -1])
@pytest.mark.parametrize("b", [1, 2, 7, 24])
def test_enumerate_walks_a_single_run_below_the_table_cut(s1, b):
    # a run along b alone is walked or sliced, whether b is below the table
    # cut _table_cut(200) = 21 or not; the cut applies to a second factor
    order = 200
    terms = [(3, 1, s1, b, 1, None), (-2, b, -s1, b + 1, -1, None)]
    families = list(map(_single, terms))
    assert _enumerate([0] * order, families) == _reference([0] * order, families)
    mixed = [*families, _single((1, 2, s1, 30, -1, b))]  # and beside a run along c = b, tabled below the cut
    assert _enumerate([0] * order, mixed) == _reference([0] * order, mixed)


def _random_term(rng, order):
    w = rng.choice([1, -1, rng.randint(-9, 9), 10**40, -(10**40)])
    a = rng.choice([0, 1, rng.randrange(order), order - 1, order, order + 3])
    b = rng.choice([1, rng.randint(1, order // 4 + 1), rng.randint(1, order + 4)])
    c = rng.choice([None, 1, b, rng.randint(1, _table_cut(order) + 2), rng.randint(1, order + 4)])
    return (w, a, rng.choice([1, -1]), b, rng.choice([1, -1]), c)


@pytest.mark.parametrize("order", [16, 17, 23, 40, 63, 64, 65, 97, 120])
def test_enumerate_matches_reference_on_random_terms(order):
    rng = random.Random(order)
    for _ in range(60):
        family = _single(_random_term(rng, order))
        assert _enumerate([0] * order, [family]) == _reference([0] * order, [family]), family
    for _ in range(30):
        families = [_single(_random_term(rng, order)) for _ in range(rng.randint(2, 12))]
        start = [rng.randint(-5, 5) for _ in range(order)]
        assert _enumerate(start[:], families) == _reference(start[:], families), families


def _random_family(rng, order):
    w, a, s1, b, s2, c = _random_term(rng, order)
    da = rng.choice([0, 1, 2, rng.randint(1, order // 4 + 1), rng.randint(1, order + 4)])
    db = rng.choice([0, 1, 2, rng.randint(1, order // 4 + 1)])
    count = rng.choice([1, 2, _SHORT - 1, _SHORT, _SHORT + 1, rng.randint(1, order + 2)])
    return (w, rng.choice([1, -1]), a, da, s1, b, db, s2, c, count)


@pytest.mark.parametrize("order", [16, 23, 40, 64, 97, 120, 200, 257])
def test_enumerate_matches_reference_on_random_families(order):
    rng = random.Random(f"families {order}")
    for _ in range(40):
        family = _random_family(rng, order)
        assert _enumerate([0] * order, [family]) == _reference([0] * order, [family]), family
    for _ in range(15):
        families = [_random_family(rng, order) for _ in range(rng.randint(2, 8))]
        start = [rng.randint(-5, 5) for _ in range(order)]
        assert _enumerate(start[:], families) == _reference(start[:], families), families


# Straight rows as difference marks. At order 200 the table cut is
# _table_cut(200) = 21: a second factor's run along c >= 21 makes every row
# straight, added together with its copies at +v*c. A straight row has at
# least _SHORT terms, so its step is at most 199 // 23 = 8, and the straight
# rows of one table key (step, ws), copies included, are sliced until they
# hold `order` points, then marked. ORDER is the order of every test below.
ORDER = 200
CUT = _table_cut(ORDER)


def _spread(table, stride, sign):
    """The points that the marks of the table of (stride, sign) stand for:
    each entry runs on as sign^j at +j*stride, a walk from the start."""
    for x in range(stride, len(table)):
        table[x] += sign * table[x - stride]
    return table


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3, _SHORT, _SHORT + 1])
@pytest.mark.parametrize("end", [ORDER - 8, ORDER - 1, ORDER, ORDER + 1, ORDER + 6])
def test_mark_run_spreads_to_the_run(ws, n, end):
    # a run of n points at step 7 whose end mark p + n*7 lands before, on
    # or past the order, where it is dropped; its first copy falls on or
    # past the order, so the table holds the run's two marks alone
    step, w = 7, -(10**40) + 3
    p = end - n * step
    expected = [0] * ORDER
    for j in range(n):
        if p + j * step < ORDER:
            expected[p + j * step] += w * ws**j
    for c, s2 in ((ORDER - p, 1), (ORDER - p, -1), (ORDER, -1)):
        table = [0] * ORDER
        _mark_copies(table, p, step, n, w, ws, c, s2)
        assert _spread(table, step, ws) == expected


def _counting_marks(monkeypatch):
    """Count the straight rows `_enumerate` adds as marks rather than
    slices, as (p, step, n, ws, c): each row once, with its copies along c
    (c = ORDER for a row without a second factor)."""
    runs = []

    def mark(table, p, step, n, w, ws, c, s2):
        runs.append((p, step, n, ws, c))
        _mark_copies(table, p, step, n, w, ws, c, s2)

    monkeypatch.setattr(oracle, "_mark_copies", mark)
    return runs


def _row(w, ws, a, step, count, c=None, s2=1):
    """A family of one straight row: count terms from a at `step`, each with
    one run along c (a single point if c is None); b = ORDER ends the rows."""
    return (w, ws, a, step, 1, ORDER, 0, s2, c, count)


def _check(families, start=None):
    start = start or [0] * ORDER
    assert _enumerate(start[:], families) == _reference(start[:], families)


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize(
    "counts,marked", [((50, 50, 50, 49), []), ((50, 50, 50, 50), [3]), ((50, 50, 50, 50, 30), [3, 4])]
)
def test_straight_rows_are_marked_once_they_hold_order_points(monkeypatch, ws, counts, marked):
    # rows of step 3 from a = 0, 1, 2, ...: 199 points are sliced, and the
    # row that brings them to 200 and every later one is marked
    runs = _counting_marks(monkeypatch)
    families = [_row(2 * i - 3, ws, i, 3, count) for i, count in enumerate(counts)]
    _check(families)
    assert runs == [(i, 3, counts[i], ws, ORDER) for i in marked]


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("filler,marked", [(84, False), (85, True)])
def test_a_rows_copies_count_toward_the_threshold(monkeypatch, ws, filler, marked):
    # 30 terms of step 2 from 0 with copies at 50, 100 and 150 hold
    # 30 + 30 + 30 + 25 = 115 points: after a row of 84 points the table of
    # (2, ws) holds 199 and the row is sliced, after one of 85 it holds 200 and the
    # row is marked with all its copies, though its first copy alone stays
    # below the threshold
    runs = _counting_marks(monkeypatch)
    _check([_row(1, ws, 1, 2, filler), _row(-3, ws, 0, 2, 30, c=50, s2=-1)])
    assert runs == ([(0, 2, 30, ws, 50)] if marked else [])


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("s2", [1, -1])
@pytest.mark.parametrize("c", [CUT - 1, CUT, CUT + 1])
def test_c_on_the_table_cut(monkeypatch, ws, s2, c):
    # rows of step 1 + u with one copy per point of the run along c above
    # the cut, enough of them to mark; below the cut c goes into a table
    runs = _counting_marks(monkeypatch)
    family = (3, ws, 1, 1, -1, 1, 1, s2, c, 150)
    _check([family])
    assert bool(runs) == (c >= CUT)


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("a,step", [(15, 8), (16, 8), (0, 24), (0, 25), (0, 26)])
def test_row_steps_at_the_straight_limit(monkeypatch, ws, a, step):
    # 24 terms of step 8 from 15 end at 199, the longest straight step at
    # order 200, and are marked once eight rows of 25 points have filled
    # the table of (8, ws); from 16 only 23 fit, and steps 24-26 hold 9 or fewer, so
    # those terms are walked along u instead
    runs = _counting_marks(monkeypatch)
    filler = [_row(1, ws, r, 8, 25) for r in range(8)]
    _check([*filler, _row(5, ws, a, step, 40, c=CUT + 3, s2=-1)])
    assert (a in {p for p, *_ in runs}) == ((a, step) == (15, 8))


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("c", [ORDER - 1, 181, 180, 182])
def test_a_marked_copy_of_one_odd_or_even_count(monkeypatch, ws, c):
    # a row of 24 terms from 0 at step 1 whose copy at c holds 1 (c = 199),
    # 19, 20 or 18 points; two rows of 200 and 199 points first push the
    # table of (1, ws) past the threshold, and the row is marked
    # once with its copy, whose end marks fall past the order
    runs = _counting_marks(monkeypatch)
    filler = [_row(1, ws, r, 1, ORDER - r) for r in range(2)]
    _check([*filler, _row(-7, ws, 0, 1, 24, c=c, s2=-1)])
    assert (0, 1, 24, ws, c) in runs


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("count", [29, 30, 31, 36])
def test_count_limited_rows_end_on_and_past_the_order(monkeypatch, ws, count):
    # marked rows of step 5 from 49, 50 and 51: 30 terms put the end mark
    # on 199, 200 and 201, 29 terms put the last mark of ws = -1 there, and
    # 31 or 36 terms are cut at the order; five rows of 40 points come first
    runs = _counting_marks(monkeypatch)
    filler = [_row(1, ws, r, 5, 40) for r in range(5)]
    _check([*filler, *(_row(1 - 2 * r, ws, 49 + r, 5, count) for r in range(3))])
    assert {49, 50, 51} <= {p for p, *_ in runs}


def _filled(step, ws):
    """Rows of `step` on every residue mod step, ORDER points together, so
    that the table of (step, ws) marks every later row."""
    return [_row(1, ws, r, step, (ORDER - 1 - r) // step + 1) for r in range(step)]


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("s2", [1, -1])
@pytest.mark.parametrize(
    "a,step,count,c",
    [(0, 2, 30, 50), (1, 3, 33, 66), (0, 4, 25, 50), (0, 4, 24, 50), (0, 4, 24, 33), (5, 1, 60, CUT)],
)
def test_marked_copies_that_cross_the_order_part_way(monkeypatch, ws, s2, a, step, count, c):
    # a marked row's copy at a + v*c ends at a + count*step + v*c: the early
    # copies end on the list and keep their end marks, the later ones lose
    # them; the third copy ends on 200 itself (step 4, 25 terms), or ends on
    # 196 with the second end mark of ws = -1 on 200 (step 4, 24 terms), and
    # the fourth at c = 33 ends on 195 with that mark on 199, the last kept
    runs = _counting_marks(monkeypatch)
    _check([*_filled(step, ws), _row(5, ws, a, step, count, c=c, s2=s2)])
    assert (a, step, count, ws, c) in runs


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("s2", [1, -1])
def test_step_0_families_above_the_cut(ws, s2):
    # da = db = 0: every row is `count` terms on one point p > 0 with its
    # copies at p + v*c, which stop at the order, (ORDER - 1 - p) // c + 1
    # of them, not (ORDER - 1) // c + 1
    for p in (1, 37, 150, ORDER - 1):
        for c in (CUT, 61, ORDER - 1, None):
            for count in (_SHORT - 1, _SHORT, _SHORT + 7):
                for s1, b in ((1, 3), (-1, 41)):
                    _check([(3, ws, p, 0, s1, b, 0, s2, c, count)])


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("s1", [1, -1])
@pytest.mark.parametrize("s2", [1, -1])
def test_tail_terms_whose_runs_along_u_are_long(monkeypatch, ws, s1, s2):
    # 10 terms, fewer than _SHORT from the first row: term 0 runs along u
    # from 2 at stride 1, 198 points in one slice, and later terms and
    # copies hold shorter runs, walked; the second family's rows thin out
    # below _SHORT terms at u = 7, where its terms' runs along u are long
    runs = []

    def add_run(target, p, step, n, w, ws):
        runs.append((p, step, n))
        _add_run(target, p, step, n, w, ws)

    _add_run = oracle._add_run
    monkeypatch.setattr(oracle, "_add_run", add_run)
    _check([(3, ws, 2, 5, s1, 1, 1, s2, CUT + 4, 10)])
    assert (2, 1, ORDER - 2) in runs
    _check([(-1, ws, 0, 1, s1, 3, 1, s2, 40, 120)])


@pytest.mark.parametrize("ws", [1, -1])
@pytest.mark.parametrize("c_first", [True, False])
def test_a_row_step_equal_to_a_c_table_stride(monkeypatch, ws, c_first):
    # rows of step 4 and 90 points share the table of (4, ws) with a run
    # along c = 4 of sign s2 = ws: made by the c-run first, the table takes
    # every row as marks; made after, it takes none
    runs = _counting_marks(monkeypatch)
    c_family = (1, -1, 2, 1, 1, 30, 1, ws, 4, 60)
    rows = [_row(3, ws, r, 4, 30) for r in range(3)]
    _check([c_family, *rows] if c_first else [*rows, c_family])
    assert bool(runs) == c_first


# A run along c = 4 of sign -1 and one along c = 8 of sign +1, and three
# straight rows each of step 4 and ws = -1 and of step 8 and ws = +1. Kept
# at twice its stride, a run of sign -1 would share the table of stride 8
# with all four; keyed by (stride, sign), the rows of step 4 share only the
# c = 4 table and those of step 8 only the c = 8 one
C4 = (1, -1, 2, 1, 1, 30, 1, -1, 4, 60)
C8 = (-2, 1, 3, 1, -1, 30, 1, 1, 8, 60)
ROWS4 = [_row(3, -1, r, 4, 30) for r in range(3)]
ROWS8 = [_row(-5, 1, r, 8, 24) for r in range(3)]


@pytest.mark.parametrize(
    "families,marked",
    [
        (
            [C4, C8, *ROWS4, *ROWS8],
            [(r, 4, 30, -1, ORDER) for r in range(3)] + [(r, 8, 24, 1, ORDER) for r in range(3)],
        ),
        ([*ROWS4, *ROWS8, C4, C8], []),  # made after, the rows' 90 and 72 points are sliced
        ([C4, *ROWS8], []),
        ([C8, *ROWS4], []),
    ],
)
def test_tables_of_one_stride_and_two_signs_stay_apart(monkeypatch, families, marked):
    runs = _counting_marks(monkeypatch)
    _check(families)
    assert runs == marked


@pytest.mark.parametrize("w", [10**40, -(10**40)])
def test_marks_carry_large_weights(monkeypatch, w):
    runs = _counting_marks(monkeypatch)
    families = [(w + r, -1, r, 1, -1, 3, 1, 1, CUT + 2 * r, 120) for r in range(6)]
    _check(families, start=[r - 100 for r in range(ORDER)])
    assert runs


@pytest.mark.parametrize("seed", range(6))
def test_enumerate_matches_reference_on_families_that_share_their_steps(monkeypatch, seed):
    # 50-300 families with one (da, db), most of them straight, so that the
    # straight rows of several table keys cross the threshold
    rng = random.Random(f"straight {seed}")
    da, db = rng.choice([(1, 0), (1, 1), (2, 1), (3, 0), (1, 2), (5, 1)])
    families = []
    for _ in range(rng.randint(50, 300)):
        w = rng.choice([1, -1, rng.randint(-9, 9), 10**40, -(10**40)])
        c = rng.choice([None, None, rng.randint(CUT - 2, ORDER + 3), rng.randint(1, CUT)])
        b = rng.randint(max(db, 1), 60)
        count = rng.choice([_SHORT - 1, _SHORT, rng.randint(_SHORT, ORDER)])
        ws, s1, s2 = (rng.choice([1, -1]) for _ in range(3))
        families.append((w, ws, rng.randrange(60), da, s1, b, db, s2, c, count))
    runs = _counting_marks(monkeypatch)
    _check(families, start=[rng.randint(-5, 5) for _ in range(ORDER)])
    assert runs


def test_oracle_imports_nothing_else_from_the_package():
    """The oracle shares only names with the rest of lambertq, and the
    builders' order check, no arithmetic."""
    allowed = {"constructors": {"SeriesId"}, "series": {"TruncatedSeries", "_check_args"}, "errors": None}
    tree = ast.parse(Path(oracle.__file__).read_text())
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "lambertq" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert node.module.split(".")[0] != "lambertq", node.module
                continue
            assert node.level == 1 and node.module in allowed, node.module
            if allowed[node.module] is not None:
                assert {alias.name for alias in node.names} == allowed[node.module]
            seen.add(node.module)
    assert seen == set(allowed)


def test_enumerate_adds_terms_onto_the_list():
    terms = list(HAND_EXPANDED_TERMS)
    expected = [sum(col) for col in zip(*HAND_EXPANDED_TERMS.values())]
    assert _enumerate([0] * 10, map(_single, terms)) == expected
    assert _enumerate([7] * 10, [_single(terms[0])]) == [7 + x for x in HAND_EXPANDED_TERMS[terms[0]]]


@pytest.mark.parametrize("sid", list(_DISPLAYS))
def test_oracle_rows_agree_on_their_common_prefix(sid):
    # _table_cut is 25, 39 and 57 at orders 300, 700 and 1500, so a family
    # with 25 <= c < 57 is tabled at one order and straight at another: the
    # walker's two branches checked against each other, no constructor involved
    prefix = oracle_expand(sid, 300)
    for order in (700, 1500):
        assert oracle_expand(sid, order).truncate(300) == prefix, order


def test_z_equals_a_plus_b_in_the_oracle():
    """The two halves of the split must re-sum to Z inside the oracle alone."""
    z = oracle_expand(SeriesId.Z, 300)
    a = oracle_expand(SeriesId.A, 300)
    b = oracle_expand(SeriesId.B, 300)
    assert z == a + b


@pytest.mark.parametrize("sid", ORACLE_SERIES)
def test_oracle_agrees_with_constructor(sid):
    for order in [*range(1, 61), 300]:
        assert oracle_expand(sid, order) == named_series(sid, order), order


@pytest.mark.parametrize(
    "call",
    [
        lambda order: oracle_expand(SeriesId.Z, order),
        oracle_phi,
        lambda order: oracle_partitions(1, 1, order),
        lambda order: oracle_divisor_lambert(-1, 1, order),
    ],
    ids=["expand", "phi", "partitions", "divisor_lambert"],
)
class TestOrderChecks:
    """Every oracle checks its order once, in the helper that makes the zero
    list, `oracle._zeros`; the reference oracles in `references` call it too."""

    @pytest.mark.parametrize("order", [5.0, True, False, "5", None])
    def test_non_int_order_is_a_type_error(self, call, order):
        with pytest.raises(TypeError, match=f"order must be an int, got {order!r}"):
            call(order)

    @pytest.mark.parametrize("order", [0, -3])
    def test_small_order_is_too_small(self, call, order):
        with pytest.raises(OrderTooSmall, match=f"got {order}$"):
            call(order)

    def test_order_one_is_the_constant_term(self, call):
        assert len(call(1)) == 1


class TestPartitions:
    def test_plain_partitions(self):
        f = oracle_partitions(1, 1, 16)
        assert list(f) == PARTITION_COUNTS

    def test_two_colors_even_parts(self):
        f = oracle_partitions(2, 2, 5)
        # q^4: the part 4 in either color, or 2+2 in three color multisets
        assert f[4] == 5
        assert f[1] == f[3] == 0

    @pytest.mark.parametrize("colors,modulus", [(1, 1), (3, 2), (2, 5)])
    def test_constant_term_is_one(self, colors, modulus):
        assert oracle_partitions(colors, modulus, 8)[0] == 1

    def test_matches_pochhammer_inverse(self):
        f = oracle_partitions(2, 2, 60)
        p2 = pochhammer(SignedMonomial(1, 2), 2, 60)
        assert f == (p2 * p2).invert()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            oracle_partitions(0, 1, 5)
        with pytest.raises(ValueError):
            oracle_partitions(1, 0, 5)
        for order in (0, -2):
            with pytest.raises(OrderTooSmall):
                oracle_partitions(1, 1, order)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, "2", None])
    def test_non_int_parameters_are_type_errors(self, value):
        with pytest.raises(TypeError, match=f"colors must be an int, got {value!r}"):
            oracle_partitions(value, 1, 6)
        with pytest.raises(TypeError, match=f"part_modulus must be an int, got {value!r}"):
            oracle_partitions(2, value, 6)

    def test_counting_function_matches_series(self):
        for n, expected in enumerate(PARTITION_COUNTS):
            assert oracle_partition_count(n) == expected

    def test_counting_function_rejects_negative(self):
        with pytest.raises(ValueError):
            oracle_partition_count(-1)

    @pytest.mark.parametrize("n", [1.5, True, "3", None])
    def test_counting_function_rejects_non_int(self, n):
        with pytest.raises(TypeError, match=f"n must be an int, got {n!r}"):
            oracle_partition_count(n)


class TestDivisorLambert:
    def test_alternating_divisor_sums(self):
        f = oracle_divisor_lambert(-1, 1, 16)
        # q^12: divisors 1,2,3,4,6,12 give -1+1-1+1+1+1
        assert f[12] == 2
        assert f[1] == -1
        assert f[0] == 0

    def test_plain_divisor_count(self):
        f = oracle_divisor_lambert(1, 1, 16)
        assert f[12] == 6
        assert f[7] == 2

    def test_step_two_leaves_odd_exponents_empty(self):
        f = oracle_divisor_lambert(-1, 2, 16)
        assert all(f[j] == 0 for j in range(1, 16, 2))
        assert f[6] == -2

    def test_is_a_second_check_of_l1(self):
        for order in (1, 2, 17, 300):
            assert oracle_divisor_lambert(-1, 1, order) == oracle_expand(SeriesId.L1, order)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            oracle_divisor_lambert(2, 1, 5)
        with pytest.raises(ValueError):
            oracle_divisor_lambert(1, 0, 5)

    @pytest.mark.parametrize("value", [1.5, 1.0, -1.0, True, False, "1", None])
    def test_non_int_parameters_are_type_errors(self, value):
        with pytest.raises(TypeError, match=f"sigma must be an int, got {value!r}"):
            oracle_divisor_lambert(value, 1, 6)
        with pytest.raises(TypeError, match=f"t must be an int, got {value!r}"):
            oracle_divisor_lambert(1, value, 6)


class TestPhiOracle:
    """`oracle_phi` counts m(m+1) + n(n+1) = k; Gauss's identity makes that PHI."""

    def test_hand_counted_vector(self):
        # q^12: (3, 0), (0, 3) and (2, 2)
        assert list(oracle_phi(16)) == [1, 0, 2, 0, 1, 0, 2, 0, 2, 0, 0, 0, 3, 0, 2, 0]

    def test_matches_phi_at_every_small_order(self):
        for order in range(1, 301):
            assert oracle_phi(order) == phi(order), order

    def test_matches_phi_at_2000(self):
        assert oracle_phi(2000) == phi(2000)

    def test_is_not_an_oracle_expand_series(self):
        # a cross-check of PHI, not an expansion of its display
        with pytest.raises(UnsupportedSeries):
            oracle_expand(SeriesId.PHI, 10)
