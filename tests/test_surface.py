"""The package's public surface is exactly its modules' `__all__` lists,
and the tests share their references through `references` alone."""

import ast
import re
import textwrap
from pathlib import Path

import lambertq
from lambertq import constructors, errors, harness, oracle, series

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
