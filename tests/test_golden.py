"""The CLI's outputs against the digests committed in golden.py, and the
serialisation digest.py hashes."""

import hashlib
from contextlib import nullcontext

import pytest

import digest
import golden
from lambertq import ENTRY29_TRIPLES, SeriesId, entry29_rhs, oracle_expand
from lambertq.constructors import _product_run


@pytest.mark.parametrize("order", [200, 2000])
def test_verify_all_matches_its_digest(order):
    assert golden.check(order)


@pytest.mark.parametrize("sid", list(golden.EXPAND))
def test_expand_matches_its_digest(sid):
    assert golden.expand_digest(sid) == golden.EXPAND[sid]


def test_digest_serialises_a_series_at_an_order():
    assert digest.serialise(SeriesId.L1, 4) == b"L1@4:0,-1,0,-2;"
    assert digest.orders(["3", "5-7"]) == [3, 5, 6, 7]


def test_oracle_digest_hashes_every_oracle_row(capsys):
    assert digest.serialise(SeriesId.L1, 4, oracle_expand) == b"L1@4:0,-1,0,-2;"
    assert digest.main(["--oracle", "1-3"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [sid for sid in SeriesId if sid is not SeriesId.PHI]
    assert [name for _, name in lines] == [*(sid.value for sid in rows), "all"]
    whole = b"".join(digest.serialise(sid, n, oracle_expand) for sid in rows for n in (1, 2, 3))
    assert lines[-1][0] == hashlib.sha256(whole).hexdigest()


def test_product_digest_hashes_each_group_order_by_order(capsys):
    assert digest.main(["--products", "1-3"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _, name in lines] == ["PHI", "ENTRY29", "POCHHAMMER", "RUN", "all"]
    x, y, base = ENTRY29_TRIPLES[0]
    assert digest.named(f"entry29_rhs({x}, {y}, {base})", entry29_rhs(x, y, base, 2)) == b"entry29_rhs(-q, +q, 2)@2:2,0;"
    groups = digest.product_groups()
    texts = {}
    for group, members in groups.items():
        texts[group] = b""
        for n in (1, 2, 3):
            with _product_run() if group == "RUN" else nullcontext():
                texts[group] += b"".join(digest.named(name, build(n)) for name, build in members)
    assert [h for h, _ in lines] == [
        *(hashlib.sha256(texts[group]).hexdigest() for group in groups),
        hashlib.sha256(b"".join(texts.values())).hexdigest(),
    ]


def test_run_group_is_phi_then_entry29_built_in_one_run():
    # shared and resumed expansions give the standalone bytes
    groups = digest.product_groups()
    standalone = groups["PHI"] + groups["ENTRY29"]
    assert [name for name, _ in groups["RUN"]] == [name for name, _ in standalone]
    for n in (60, 121):
        with _product_run():
            shared = [build(n) for _, build in groups["RUN"]]
        assert shared == [build(n) for _, build in standalone]
