"""The CLI's outputs against the digests committed in golden.py, and the
serialisation digest.py hashes."""

import pytest

import digest
import golden
from lambertq import SeriesId


@pytest.mark.parametrize("order", [200, 2000])
def test_verify_all_matches_its_digest(order):
    assert golden.check(order)


@pytest.mark.parametrize("sid", list(golden.EXPAND))
def test_expand_matches_its_digest(sid):
    assert golden.expand_digest(sid) == golden.EXPAND[sid]


def test_digest_serialises_a_series_at_an_order():
    assert digest.serialise(SeriesId.L1, 4) == b"L1@4:0,-1,0,-2;"
    assert digest.orders(["3", "5-7"]) == [3, 5, 6, 7]
