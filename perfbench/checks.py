"""Expected outputs of every benchmark workload, checked in plain Python.

Nothing here imports lambertq: the expectations are written down from the
published statuses and the linear relations between the named series, so a
change to the package cannot also change what counts as correct. Each check
returns a list of problems; an empty list means the operation passed.

`broken=True` swaps in a deliberately wrong expectation. The self-check uses
it to show that a wrong output is counted as a failed operation.
"""

from __future__ import annotations

import json

SERIES = (
    "Y_DEF", "Y_EQ1", "Y_EQ2", "Z", "A", "B", "B1",
    "D1", "D2", "S", "L1", "L2", "L3", "PHI",
)
ORACLE_SERIES = ("Y_DEF", "Z", "A", "B", "B1")
IDENTITIES = (
    "I1_Y_EQ2",
    "I2_Y_EQ1",
    "I3_Z_EQ_A_PLUS_B",
    "I4_LEMMA1",
    "I5_D1_DECOMP",
    "I6_D2_FORMS",
    "I7_S_EQ_QPHI",
    "I8_SUM_DIFFERENCE",
    "I9_LEMMA2",
    "I10_CONJ1_PARITY",
    "I11_CONJ2",
    "I12_BILATERAL_HALVING",
    "I13_ENTRY29_INSTANCE",
)
SIGN_FLIPPED = frozenset({"I7_S_EQ_QPHI", "I8_SUM_DIFFERENCE"})
CONJECTURES = frozenset({"I10_CONJ1_PARITY", "I11_CONJ2"})
UNPROVEN_NOTE = "unproven conjecture: finite-order evidence only"

# leading coefficients printed in the package documentation
ANCHORS = {"Y_DEF": (0, 0, 0, -1, 0, -2), "PHI": (1, 0, 2, 0)}


def _expected_status(ident: str, broken: bool = False) -> str:
    if broken and ident == IDENTITIES[0]:
        return "FAILED"
    return "VERIFIED_WITH_SIGN_FLIP" if ident in SIGN_FLIPPED else "VERIFIED"


def check(workload: str, order: int, result: dict, broken: bool = False) -> list[str]:
    """Problems with one worker result for `workload` at `order`."""
    if result.get("error"):
        return [result["error"]]
    try:
        return _CHECKS[workload](order, result["output"], broken)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _check_suite(order: int, output: dict, broken: bool) -> list[str]:
    problems = []
    if output["rc"] != 0:
        problems.append(f"verify --all exited {output['rc']}")
    rows = json.loads(output["stdout"])
    got = tuple(row["identity"] for row in rows)
    if got != IDENTITIES:
        return problems + [f"identities {got}, expected {IDENTITIES}"]
    for row in rows:
        ident = row["identity"]
        want = _expected_status(ident, broken)
        if row["status"] != want:
            problems.append(f"{ident}: status {row['status']}, expected {want}")
        if row["order"] != order:
            problems.append(f"{ident}: checked to order {row['order']}, expected {order}")
        if ident in CONJECTURES and row.get("annotation") != UNPROVEN_NOTE:
            problems.append(f"{ident}: annotation {row.get('annotation')!r}, expected the conjecture note")
    return problems


def _first_difference(f: list[int], g: list[int]) -> int | None:
    for i, (a, b) in enumerate(zip(f, g)):
        if a != b:
            return i
    return None if len(f) == len(g) else min(len(f), len(g))


def _check_expand(order: int, output: list, broken: bool) -> list[str]:
    problems = []
    s: dict[str, list[int]] = {}
    for sid, rc, stdout in output:
        if rc != 0:
            problems.append(f"expand {sid} exited {rc}")
            continue
        payload = json.loads(stdout)
        coeffs = [int(c) for c in payload["coeffs"]]
        if payload["series"] != sid or payload["order"] != order or len(coeffs) != order:
            problems.append(f"expand {sid}: got {payload['series']} with {len(coeffs)} coefficients")
            continue
        s[sid] = coeffs
    missing = [sid for sid in SERIES if sid not in s]
    if problems or missing:
        return problems + [f"no output for {sid}" for sid in missing]

    def add(f, g):
        return [a + b for a, b in zip(f, g)]

    def sub(f, g):
        return [a - b for a, b in zip(f, g)]

    # exact relations between the series; together they touch all fourteen
    relations = (
        ("Y_DEF = Y_EQ1", s["Y_DEF"], s["Y_EQ1"]),
        ("Y_DEF = Y_EQ2", s["Y_DEF"], s["Y_EQ2"]),
        ("Z = A + B", s["Z"], (sub if broken else add)(s["A"], s["B"])),
        ("B1 = A(-q)", s["B1"], [c if n % 2 == 0 else -c for n, c in enumerate(s["A"])]),
        ("D1 = Y + Z", s["D1"], add(s["Y_DEF"], s["Z"])),
        ("D2 = B + B1", s["D2"], add(s["B"], s["B1"])),
        ("S = -q*PHI", s["S"], [0] + [-c for c in s["PHI"][:-1]]),
        ("L1 - L2 = -L3", sub(s["L1"], s["L2"]), [-c for c in s["L3"]]),
    )
    for label, lhs, rhs in relations:
        i = _first_difference(lhs, rhs)
        if i is not None:
            problems.append(f"{label} fails at q^{i}")
    for sid in SERIES:
        if not any(s[sid]):
            problems.append(f"{sid} is identically zero")
    for sid, head in ANCHORS.items():
        n = min(order, len(head))
        if tuple(s[sid][:n]) != head[:n]:
            problems.append(f"{sid} starts {s[sid][:n]}, expected {list(head[:n])}")
    return problems


def _check_oracle(order: int, output: list, broken: bool) -> list[str]:
    problems = []
    seen = [sid for sid, _, _ in output]
    if sorted(seen) != sorted(ORACLE_SERIES):
        return [f"oracle series {seen}, expected {list(ORACLE_SERIES)}"]
    built = [constructed for _, _, constructed in output]
    if broken:
        built = built[1:] + built[:1]
    for (sid, lattice, _), constructed in zip(output, built):
        if len(lattice) != order:
            problems.append(f"oracle {sid}: {len(lattice)} coefficients, expected {order}")
        i = _first_difference(lattice, constructed)
        if i is not None:
            problems.append(f"oracle {sid} differs from its constructor at q^{i}")
    return problems


_CHECKS = {"suite": _check_suite, "expand": _check_expand, "oracle": _check_oracle}
