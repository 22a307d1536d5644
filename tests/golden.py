"""Committed sha256 digests of the CLI's outputs, and a check against them.

    PYTHONPATH=src python tests/golden.py 5000

checks `lambertq verify --all --format json` at each order given, and exits
1 if a digest differs. The digests were computed before the product sides
moved onto one binomial-factor path, so they pin every status, mismatch
index and annotation across that rewrite. A `verify` digest hashes the JSON
rows with their `elapsed_ms` removed, re-dumped as the CLI prints them; an
`expand` digest hashes the CLI's whole stdout.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout

from lambertq.cli import main

VERIFY = {
    200: "edce348dadb7b970e98e212b227792e1a4f91e57982d0ae24b232f24049b5a59",
    2000: "c0f53f5f3a4772315e4e3adf0ae490803b8ca8c1ac4dd144b5b28d7c00f421f5",
    5000: "6c71cacb6411221a08d504838a58d9711e3e74f7c9d8ad47d212efc13a0dc7c5",
}

EXPAND_ORDER = 2000
EXPAND = {
    "Y_DEF": "8a43cb4c16722a8de92a8ee765bc90da835a614c7ed6fada0fad63b4141b07a8",
    "Y_EQ1": "5ef697e2c122119f2083211e900b21d2c276aafe43c412a2c72ee2dc3e0ebc66",
    "Y_EQ2": "943539ec29321c6f1ccfd5544ee14d09d287f37067ff54d2fd3c8f1c81a0aec3",
    "Z": "9e646c67e46acd69cf748767e4df62d18a6abecdc984aa53e74be61ae83c0992",
    "A": "d4f004c52a352193ddfd23bdff97266d49f35704564a06b30dc650aa69bbfa80",
    "B": "5c03bf1abbef32b389847c7898a263a96c8381ea198760d76d6fcfd147fad5f1",
    "B1": "1bc095e8c416d52b334872b7d91e6420211af2f34f8b4fb214cda2753c1a8c6f",
    "D1": "6f6107586c21f8aac338d3e19b3a2d5fbffb9290c7f9335c5aafbb1aa8b22511",
    "D2": "f6d14752face777fc9a001993e892420edefa953d367c7b96719dead8ed0a516",
    "S": "0324d11ae52933b9d0e58151074bca2f777925ef88325de763051b12517d00e1",
    "L1": "189047dbaa68ab0c4ffe684b32cb2f1e4694f5d61d833400f52b99744e49a3db",
    "L2": "f37045582e590c383520cbff3f9d40ac2ecdc58af6b828774437859eb90303cb",
    "L3": "b139761d1b2b3c5796fc0a534950ed99ff436de27b2e368abeb1fa40fd063b10",
    "PHI": "6800d0d73fb8622504b86d8fe899eb5f906544f30c97de8ff732b24e7a343377",
}


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"lambertq {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_digest(order: int) -> str:
    rows = json.loads(_run(["verify", "--all", "--order", str(order), "--format", "json"]))
    for row in rows:
        del row["elapsed_ms"]
    return _sha256(json.dumps(rows, indent=2))


def expand_digest(sid: str) -> str:
    return _sha256(_run(["expand", sid, "--order", str(EXPAND_ORDER), "--format", "json"]))


def check(order: int) -> bool:
    """Whether `verify --all` at `order` still prints the committed rows."""
    return verify_digest(order) == VERIFY[order]


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        ok = check(int(arg))
        failed |= not ok
        print(f"verify --all --order {arg}: {'ok' if ok else 'DIGEST MISMATCH'}")
    sys.exit(1 if failed else 0)
