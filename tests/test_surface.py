"""The package's public surface is exactly its modules' `__all__` lists, its
records keep the contract of frozen records, importing the CLI loads neither
`dataclasses` nor `inspect`, and the tests share their references through
`references` alone."""

import ast
import copy
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lambertq
from lambertq import (
    Comparison,
    IdentityId,
    IdentityReport,
    IdentityStatus,
    LambertSpec,
    Mismatch,
    Parity,
    ParityVerdict,
    SignedMonomial,
    SignResolution,
    constructors,
    errors,
    harness,
    oracle,
    series,
)

MODULES = (series, constructors, oracle, harness, errors)

# every name `lambertq` exported when `__init__.py` still listed them by hand
EXPORTED_BEFORE = [
    "TruncatedSeries",
    "Comparison",
    "Mismatch",
    "Parity",
    "ParityVerdict",
    "linear_combine",
    "mul",
    "geometric_mul",
    "compare",
    "parity_of",
    "format_polynomial",
    "SignedMonomial",
    "LambertSpec",
    "SeriesId",
    "L1_SPEC",
    "L2_SPEC",
    "L3_SPEC",
    "S_SPEC",
    "lambert_term",
    "lambert_sum",
    "pochhammer",
    "phi",
    "named_series",
    "d2_split_product",
    "bilateral_sum",
    "entry29_rhs",
    "s_window",
    "halving_windows",
    "oracle_expand",
    "oracle_partitions",
    "oracle_partition_count",
    "oracle_divisor_lambert",
    "IdentityId",
    "IdentityStatus",
    "IdentityReport",
    "SignResolution",
    "SuiteError",
    "ENTRY29_TRIPLES",
    "check_identity",
    "run_suite",
    "sign_resolve",
    "LambertQError",
    "NotAUnit",
    "OrderTooSmall",
    "InvalidExponent",
    "DivergentSpec",
    "ZeroFactor",
    "ParameterOutOfRange",
    "UnsupportedSeries",
    "NoConsistentSign",
    "__version__",
]


def test_all_is_the_version_and_the_module_lists():
    assert lambertq.__all__ == ["__version__"] + [n for m in MODULES for n in m.__all__]


def test_no_name_is_listed_twice():
    assert len(set(lambertq.__all__)) == len(lambertq.__all__)


def test_every_entry_resolves_to_its_module_object():
    assert lambertq.__version__ == "1.0.0"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lambertq, name) is getattr(module, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from lambertq import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(lambertq.__all__)


def test_no_export_is_lost_and_the_new_ones_are_named():
    # `linear_combine` and `geometric_mul` were deleted: nothing in the
    # package called them, and `series._Packing.divide` does the division.
    # The three reference oracles moved to `tests/references.py`: only the
    # tests called them.
    assert len(EXPORTED_BEFORE) == 51
    assert set(EXPORTED_BEFORE) - set(lambertq.__all__) == {
        "linear_combine",
        "geometric_mul",
        "oracle_partitions",
        "oracle_partition_count",
        "oracle_divisor_lambert",
    }
    assert set(lambertq.__all__) - set(EXPORTED_BEFORE) == {"MAX_HALVING_WINDOW", "oracle_phi"}


# one record of each class: its fields by name, in order, and its repr
RECORDS = [
    (SignedMonomial, {"sign": -1, "exponent": 2}, "SignedMonomial(sign=-1, exponent=2)"),
    (
        LambertSpec,
        {"scalar": 1, "num_sign": -1, "a0": 0, "a1": 1, "den_sign": 1, "b0": -1, "b1": 2},
        "LambertSpec(scalar=1, num_sign=-1, a0=0, a1=1, den_sign=1, b0=-1, b1=2)",
    ),
    (Mismatch, {"index": 1, "lhs": 2, "rhs": 3}, "Mismatch(index=1, lhs=2, rhs=3)"),
    (
        Comparison,
        {"equal": False, "order_checked": 4, "first_mismatch": Mismatch(1, 2, 3)},
        "Comparison(equal=False, order_checked=4, first_mismatch=Mismatch(index=1, lhs=2, rhs=3))",
    ),
    (
        ParityVerdict,
        {"kind": Parity.NEITHER, "first_nonzero_even": 0, "first_nonzero_odd": 3},
        "ParityVerdict(kind=<Parity.NEITHER: 'neither'>, first_nonzero_even=0, first_nonzero_odd=3)",
    ),
    (
        IdentityReport,
        {
            "identity": IdentityId.I7_S_EQ_QPHI,
            "order_checked": 10,
            "status": IdentityStatus.VERIFIED_WITH_SIGN_FLIP,
            "first_mismatch": None,
            "elapsed_seconds": 0.5,
            "annotation": "note",
        },
        "IdentityReport(identity=<IdentityId.I7_S_EQ_QPHI: 'I7_S_EQ_QPHI'>, order_checked=10, "
        "status=<IdentityStatus.VERIFIED_WITH_SIGN_FLIP: 'VERIFIED_WITH_SIGN_FLIP'>, "
        "first_mismatch=None, elapsed_seconds=0.5, annotation='note')",
    ),
    (
        SignResolution,
        {"identity": IdentityId.I8_SUM_DIFFERENCE, "sign": -1, "witness_index": 7, "order_checked": 20},
        "SignResolution(identity=<IdentityId.I8_SUM_DIFFERENCE: 'I8_SUM_DIFFERENCE'>, sign=-1, "
        "witness_index=7, order_checked=20)",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_contract(cls, fields, text):
    values = tuple(fields.values())
    record = cls(**fields)
    assert cls(*values) == record
    assert record != values and values != record  # never equal to a plain tuple
    assert hash(cls(*values)) == hash(record)
    assert repr(record) == text
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    if cls is IdentityReport:
        assert cls(*values[:-1]).annotation is None
    rebuilt = [copy.copy(record), copy.deepcopy(record)]
    rebuilt += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in rebuilt:
        assert type(other) is cls and other == record
    assert cls.__match_args__ == tuple(fields)
    match record:
        case cls(first, second):
            assert (first, second) == values[:2]
        case _:
            pytest.fail(f"{cls.__name__} does not match positionally")


def test_cli_imports_without_dataclasses_or_inspect():
    src = Path(lambertq.__file__).resolve().parent.parent
    code = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        before = set(sys.modules)
        import lambertq.cli
        print(" ".join(sorted(set(sys.modules) - before)))
        """
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "lambertq.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def _imported_modules(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_nothing_imports_from_a_test_module():
    # a reference that more than one module uses lives in tests/references.py,
    # so no test module, script or CI step reaches into a test_* module
    tests = Path(__file__).parent
    workflow = (tests.parent / ".github" / "workflows" / "tier1.yml").read_text()
    heredocs = re.findall(r"python - <<'EOF'\n(.*?)\n *EOF\n", workflow, re.S)
    assert heredocs
    sources = {path.name: path.read_text() for path in sorted(tests.glob("*.py"))}
    sources.update((f"tier1.yml heredoc {i}", textwrap.dedent(h)) for i, h in enumerate(heredocs))
    bad = [
        (where, module)
        for where, source in sources.items()
        for module in _imported_modules(source)
        if any(part.startswith("test_") for part in module.split("."))
    ]
    assert not bad
