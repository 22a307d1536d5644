"""Committed sha256 digests of the CLI's outputs, and a check against them.

    PYTHONPATH=src python tests/golden.py 2896 5000

checks, at each order given, `lambertq verify --all --format json` and
`lambertq expand <SID> --format json` for every digest committed at that
order, and exits 1 if a digest differs. The `verify` digests and the
`expand` digests at 2000 were computed before the product sides moved onto
one binomial-factor path, so they pin every status, mismatch index and
annotation across that rewrite. The `expand` digests at 2896 and 5000 were
computed when the six double sums were still summed on Kronecker-packed
integers, before their slots were sized from order^2, and before product
quotients were squared from a root; they pin the six across their move
onto lists at the largest orders checked here. The `Y_DEF` digests
at those orders were computed before its m-slices started at q^(3m) and
its alternating runs became strided slices, and so before its terms were
grouped by their smaller step. A `verify` digest
hashes the JSON rows with their `elapsed_ms` removed, re-dumped as the CLI
prints them; an `expand` digest hashes the CLI's whole stdout.
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

# the six double sums, PHI and Y_DEF at two orders past the tests' 2000
WIDE_EXPAND = {
    2896: {
        "Y_DEF": "d81a8a2a3f1ef20803ab16657ec848d313a373b8cca0cabbef819ee99fcbacae",
        "Y_EQ1": "450cf86a07311f4ca7571494015ec716cec7391910c42acb8b901767e45e9090",
        "Y_EQ2": "8baa7230187638adc5e185d5d31bb92e96d958b9c3905588de4b9f9f3d6349ee",
        "Z": "25b3bc763d6f2d7ce65ec5ccc44a6ff0834281505f89dbd4669eff7774ee9c52",
        "A": "68ee5c42308399d2df1d9c43be9fb17a7cdf6c2c44c429d7e90f4565bf5f82a6",
        "B": "3f54ea4743287eec24b4354cd4a35f345360c4ba25bfbadbb295172be4396043",
        "B1": "e617ac0f954ab152a9c7d0fc8203ed145ca37602d77373b630d7fc281d2f960d",
        "PHI": "5ef6f207ecf63033582f4e9edab43721e608da096bf5a8fa3804e74f0104f9eb",
    },
    5000: {
        "Y_DEF": "3eb41f5d52d78a68218e3f4bbf49a22a4683cec3bfb32ff998cefc8e3c8f53b4",
        "Y_EQ1": "336ef3dfd721e045e50ff4ae81365ff7c739c8778a895eddfc21311139554891",
        "Y_EQ2": "d889f6ec95deddd9a251e408884e6cd6f95f8c02b1fc33e71113cbf21d89897d",
        "Z": "9bcb360aef917f40b2da088397b8339bd2f1055c097170d1597251256598eef6",
        "A": "97db7a499bc9f634caf2c63cfef8c82b659801b1ef1c1613c1a4c40355702fb1",
        "B": "ac166a79a127c5e156c5f1282d85018b0587d1fdb20d693663c414edc8105982",
        "B1": "283aca92bcf7260b957189b743865b36aafc0006c0b9dbf1c022396d40fc3009",
        "PHI": "5f9806dd184be86ea7894c9bf20cc689074182f04da62fc48a264796462f8f9d",
    },
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


def expand_digest(sid: str, order: int = EXPAND_ORDER) -> str:
    return _sha256(_run(["expand", sid, "--order", str(order), "--format", "json"]))


def check(order: int) -> bool:
    """Whether `verify --all` at `order` still prints the committed rows."""
    return verify_digest(order) == VERIFY[order]


if __name__ == "__main__":
    failed = False
    for order in map(int, sys.argv[1:]):
        results = [(f"verify --all --order {order}", check(order))] if order in VERIFY else []
        results += [
            (f"expand {sid} --order {order}", expand_digest(sid, order) == digest)
            for sid, digest in WIDE_EXPAND.get(order, {}).items()
        ]
        if not results:
            failed = True
            print(f"order {order}: no digest committed")
        for what, ok in results:
            failed |= not ok
            print(f"{what}: {'ok' if ok else 'DIGEST MISMATCH'}")
    sys.exit(1 if failed else 0)
