"""The CLI's outputs against the digests committed in golden.py."""

import pytest

import golden


@pytest.mark.parametrize("order", [200, 2000])
def test_verify_all_matches_its_digest(order):
    assert golden.check(order)


@pytest.mark.parametrize("sid", list(golden.EXPAND))
def test_expand_matches_its_digest(sid):
    assert golden.expand_digest(sid) == golden.EXPAND[sid]
