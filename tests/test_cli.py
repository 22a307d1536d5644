"""Command-line interface tests, driven through main() in-process."""

import json
import subprocess
import sys

import pytest

from lambertq import (
    IdentityId,
    IdentityReport,
    IdentityStatus,
    Mismatch,
    SeriesId,
    named_series,
)
from lambertq import cli, harness
from lambertq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestExpand:
    def test_csv_exact_bytes(self, capsys):
        code, out, err = run_cli(capsys, "expand", "Y_DEF", "--order", "6", "--format", "csv")
        assert code == 0
        assert out == "n,coefficient\n0,0\n1,0\n2,0\n3,-1\n4,0\n5,-2\n"
        assert err == ""

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "PHI", "--order", "4", "--format", "table")
        assert code == 0
        assert out == "1 + 2*q^2 + O(q^4)\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "PHI", "--order", "12", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"series", "order", "coeffs"}
        assert doc["series"] == "PHI"
        assert doc["order"] == 12
        # coefficients travel as decimal strings so arbitrary ints survive JSON
        assert all(isinstance(c, str) for c in doc["coeffs"])
        assert [int(c) for c in doc["coeffs"]] == list(named_series(SeriesId.PHI, 12))

    def test_default_order(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "L1", "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] == 200

    def test_every_series_id_is_accepted(self, capsys):
        for sid in SeriesId:
            code, _, _ = run_cli(capsys, "expand", sid.value, "--order", "8")
            assert code == 0

    def test_unknown_series_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["expand", "NOPE"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_nonpositive_order_rejected(self, capsys, order):
        code, _, err = run_cli(capsys, "expand", "PHI", "--order", order)
        assert code == 2
        assert err.startswith("error:")


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "I4_LEMMA1", "--order", "50", "--format", "json"
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["identity"] == "I4_LEMMA1"
        assert row["status"] == "VERIFIED"
        assert row["order"] == 50
        assert "elapsed_ms" in row

    def test_all_identities(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--order", "16", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["identity"] for r in rows] == [i.value for i in IdentityId]
        statuses = {r["identity"]: r["status"] for r in rows}
        assert statuses["I7_S_EQ_QPHI"] == "VERIFIED_WITH_SIGN_FLIP"
        assert statuses["I10_CONJ1_PARITY"] == "VERIFIED"

    def test_flip_note_travels_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--order", "16", "--format", "json")
        rows = {r["identity"]: r for r in json.loads(out)}
        assert "witness index 1" in rows["I7_S_EQ_QPHI"]["annotation"]

    def test_output_is_deterministic_modulo_timing(self, capsys):
        def canonical():
            code, out, _ = run_cli(
                capsys, "verify", "--all", "--order", "12", "--format", "json"
            )
            assert code == 0
            rows = json.loads(out)
            for row in rows:
                row.pop("elapsed_ms")
            return rows

        assert canonical() == canonical()

    def test_table_has_header_and_all_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--order", "12")
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["identity", "status"]
        assert len(lines) == 14

    def test_failed_identity_exits_one(self, capsys, monkeypatch):
        failed = IdentityReport(
            identity=IdentityId.I10_CONJ1_PARITY,
            order_checked=20,
            status=IdentityStatus.FAILED,
            first_mismatch=Mismatch(index=6, lhs=1, rhs=0),
            elapsed_seconds=0.001,
        )
        monkeypatch.setattr(cli, "run_suite", lambda order: [failed])
        code, out, _ = run_cli(capsys, "verify", "--all", "--format", "json")
        assert code == 1
        (row,) = json.loads(out)
        assert row["status"] == "FAILED"
        assert row["first_mismatch"] == {"index": 6, "lhs": "1", "rhs": "0"}

    def test_failed_single_identity_exits_one(self, capsys, monkeypatch):
        failed = IdentityReport(
            identity=IdentityId.I1_Y_EQ2,
            order_checked=20,
            status=IdentityStatus.FAILED,
            first_mismatch=Mismatch(index=3, lhs=-1, rhs=1),
            elapsed_seconds=0.001,
        )
        monkeypatch.setattr(cli, "check_identity", lambda ident, order: failed)
        code, _, _ = run_cli(capsys, "verify", "--identity", "I1_Y_EQ2")
        assert code == 1

    def test_raising_check_exits_three_and_keeps_completed_reports(self, capsys, monkeypatch):
        original = harness.check_identity

        def check_identity(ident, *args, **kwargs):
            if ident is IdentityId.I9_LEMMA2:
                raise RuntimeError("injected fault")
            return original(ident, *args, **kwargs)

        monkeypatch.setattr(harness, "check_identity", check_identity)
        for fmt in ("json", "table", "csv"):
            code, out, err = run_cli(capsys, "verify", "--all", "--order", "16", "--format", fmt)
            assert code == 3
            assert err == "error: I9_LEMMA2: RuntimeError: injected fault\n"
            assert "Traceback" not in err
            assert "I9_LEMMA2" not in out
            assert "I13_ENTRY29_INSTANCE" in out
        rows = json.loads(run_cli(capsys, "verify", "--all", "--order", "16", "--format", "json")[1])
        assert len(rows) == len(IdentityId) - 1

    def test_raising_single_identity_exits_three(self, capsys, monkeypatch):
        def check_identity(ident, order):
            raise ValueError("broken builder")

        monkeypatch.setattr(cli, "check_identity", check_identity)
        code, out, err = run_cli(capsys, "verify", "--identity", "I1_Y_EQ2", "--format", "json")
        assert code == 3
        assert json.loads(out) == []
        assert err == "error: I1_Y_EQ2: ValueError: broken builder\n"

    def test_identity_and_all_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--all", "--identity", "I1_Y_EQ2"])
        assert exc_info.value.code == 2

    def test_one_of_them_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify"])
        assert exc_info.value.code == 2

    def test_unknown_identity_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--identity", "I99_NOPE"])
        assert exc_info.value.code == 2

    def test_order_below_minimum_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--all", "--order", "4")
        assert code == 2
        assert "error:" in err


class TestBench:
    def test_mul_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--op", "mul", "--sizes", "16,32", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["op"] == "mul"
        assert [r["size"] for r in doc["rows"]] == [16, 32]
        assert all(r["elapsed_ms"] >= 0 for r in doc["rows"])

    def test_suite_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--op", "suite", "--sizes", "8", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["op"] == "suite"
        assert len(doc["rows"]) == 1

    def test_raising_check_in_suite_exits_three(self, capsys, monkeypatch):
        original = harness.check_identity

        def check_identity(ident, order, *args, **kwargs):
            if ident is IdentityId.I9_LEMMA2 and order == 12:
                raise RuntimeError("injected fault")
            return original(ident, order, *args, **kwargs)

        monkeypatch.setattr(harness, "check_identity", check_identity)
        code, out, err = run_cli(
            capsys, "bench", "--op", "suite", "--sizes", "8,12,16", "--format", "json"
        )
        assert code == 3
        assert err == "error: size 12: I9_LEMMA2: RuntimeError: injected fault\n"
        assert "Traceback" not in err
        # the sizes whose suite completed keep their rows
        assert [r["size"] for r in json.loads(out)["rows"]] == [8, 16]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--op", "mul", "--sizes", "16", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "size,elapsed_ms"
        assert lines[1].startswith("16,")

    @pytest.mark.parametrize("sizes", ["", "abc", "16,xyz", "4", "16,4"])
    def test_bad_sizes_rejected(self, capsys, sizes):
        code, _, err = run_cli(capsys, "bench", "--op", "mul", "--sizes", sizes)
        assert code == 2
        assert err.startswith("error:")

    def test_op_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--sizes", "16"])
        assert exc_info.value.code == 2

    def test_order_is_not_a_bench_option(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--op", "mul", "--sizes", "16", "--order", "5"])
        assert exc_info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lambertq", "expand", "PHI", "--order", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + 2*q^2 + O(q^4)\n"


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
