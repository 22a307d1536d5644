"""Self-check of the benchmark at tiny orders; takes about half a minute.

    python3 perfbench/selfcheck.py

It checks that:
  * every workload, untraced and traced, passes and prints exactly the
    metrics BENCHMARK.json lists, each with its unit;
  * a deliberately wrong expectation (a wrong expected status, a corrupted
    relation, a mismatched oracle pair) and an identity check that raises
    are each counted as failed operations, with exit code 1 and no traceback;
  * without the lambertq sources the runner exits nonzero and prints no result;
  * the tracer records spans while installed and restores every name it
    rebound when it exits.

Exits 0 when all of these hold and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_ORDER = {"suite": 24, "expand": 40, "oracle": 20}
FAULTS = (("suite", "status"), ("suite", "raise"), ("expand", "relation"), ("oracle", "oracle"))


def _run(cwd: Path, workload: str, trace: int, *extra: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--order", str(TINY_ORDER[workload]), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def _tracer_restores() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from lambertq import cli, constructors, harness, series
    from spans import Tracer

    modules = (series, constructors, harness, cli)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    before.update({("TruncatedSeries", k): v for k, v in vars(series.TruncatedSeries).items()})
    tracer = Tracer()
    with tracer.install(*modules), contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--all", "--order", "16", "--format", "json"])
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    after.update({("TruncatedSeries", k): v for k, v in vars(series.TruncatedSeries).items()})
    problems = [f"tracer left {key} rebound" for key in before if after.get(key) is not before[key]]
    if len(tracer.builds) < 14 or not any(span[0] == "series.mul" for span in tracer.spans):
        problems.append("tracer recorded no builds or no multiplications")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rc, result, stderr = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if rc != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {rc}, result {result}, stderr {stderr[-400:]!r}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")

    for workload, fault in FAULTS:
        rc, result, stderr = _run(ROOT, workload, 0, "--fault", fault)
        if rc != 1 or not result or result["correct"] or result["failed"] < 1:
            problems.append(f"fault {fault} on {workload} was not counted: exit {rc}, result {result}")
        if "Traceback" in stderr or "check failed" not in stderr:
            problems.append(f"fault {fault} on {workload}: stderr {stderr[-400:]!r}")

    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, result, _ = _run(bare, "suite", 0)
    if rc == 0 or result is not None:
        problems.append(f"without sources: exit {rc}, result {result}")
    shutil.rmtree(bare)

    problems += _tracer_restores()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
