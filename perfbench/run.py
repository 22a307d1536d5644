"""The benchmark of record for lambertq.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json and RATIONALE.md):

  suite   `lambertq verify --all --format json` at order ~800
  expand  `lambertq expand <sid> --format json` at order ~2000, all 14 series
  oracle  `oracle_expand(sid, ~700)` against `named_series(sid, ~700)`, 5 series

The load is a closed loop with one client: one operation at a time, each in
a fresh interpreter (see worker.py), until `--seconds` have passed. The seed
picks the run's order from a band of +-1 % around the nominal order and the
order in which series are built; the program receives only those inputs.

With `--trace 0` the run reports the end-to-end metrics: the median
`wall_ref` of one operation (its wall time over that of a fixed reference
loop timed around it in the same worker), the median `setup_s` of a fresh
worker and the median `peak_rss_mb` of a worker; the raw median wall time is
printed and recorded beside them. With `--trace 1` every operation runs
twice, untraced and traced, in alternating order, and the run reports the
per-layer metrics of spans.py. Every output is checked after its timer stops; an operation that
fails a check or raises is counted in `failed` and its message printed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 when every operation
passed, 1 when any failed, 2 when the benchmark could not run at all. The
environment, per-operation samples and, for a traced run, the span dump are
written under `.bench_build/perfbench/`.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

NOMINAL_ORDER = {"suite": 800, "expand": 2000, "oracle": 700}
ORDER_BAND = 0.01
END_TO_END = {"wall_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 170.0  # the whole run, operations in flight included
FAULTS = ("status", "relation", "oracle", "raise")


def make_plan(workload: str, seed: int, order: int | None) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if order is None:
        order = round(NOMINAL_ORDER[workload] * rng.uniform(1 - ORDER_BAND, 1 + ORDER_BAND))
    series = list(checks.ORACLE_SERIES if workload == "oracle" else checks.SERIES)
    rng.shuffle(series)
    return {"workload": workload, "order": order, "series": series}


def environment(seed: int, plan: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no commit to record
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lambertq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "order": plan["order"],
        "series_order": plan["series"],
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_worker(spec: dict, deadline: float) -> dict:
    """One fresh interpreter; returns its result, or an `error` if it died."""
    cmd = [
        sys.executable, "-I", "-X", f"pycache_prefix={OUT / 'pycache'}",
        str(HERE / "worker.py"), json.dumps(spec),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return {"error": "worker printed no result"}


def median_of(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_ORDER), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--order", type=int, help="override the seeded order (self-check only)")
    parser.add_argument("--fault", choices=FAULTS, help="break one expectation (self-check only)")
    args = parser.parse_args(argv)

    if not (SRC / "lambertq" / "__init__.py").is_file():
        print(f"error: no lambertq sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    plan = make_plan(args.workload, args.seed, args.order)
    env = environment(args.seed, plan)
    base = {
        "src": str(SRC), **plan, "setup_only": False, "traced": False,
        "fault": "raise" if args.fault == "raise" else None,
    }
    broken = args.fault in ("status", "relation", "oracle")

    # the first worker compiles the bytecode cache and is not counted
    warm = run_worker({**base, "setup_only": True}, deadline)
    if "error" in warm:
        print(f"error: lambertq does not import: {warm['error']}", file=sys.stderr)
        return 2

    setups: list[dict] = []
    ops: list[dict] = []
    t0 = time.monotonic()
    while not ops or (time.monotonic() - t0 < args.seconds and time.monotonic() < deadline):
        if not args.trace:
            # one set-up-only worker per operation, so set-up is sampled
            # across the whole run like the operations are
            setups.append(run_worker({**base, "setup_only": True}, deadline))
            turn = (False,)
        else:
            # each operation runs untraced and traced; the twin that goes
            # first alternates so that drift cancels in the overhead
            turn = (False, True) if len(ops) // 2 % 2 == 0 else (True, False)
        for traced in turn:
            result = run_worker({**base, "traced": traced}, deadline)
            try:
                problems = checks.check(args.workload, plan["order"], result, broken)
            except Exception as exc:  # noqa: BLE001 - a checker bug must not hide the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            ops.append({"index": len(ops), "traced": traced, "result": result, "problems": problems})
    env["loadavg_end"] = list(os.getloadavg())

    failed = [op for op in ops if op["problems"]]
    for op in failed:
        for problem in op["problems"]:
            print(f"check failed: op {op['index']}: {problem}", file=sys.stderr)
    passed = [op for op in ops if not op["problems"]]
    plain = [op["result"] for op in passed if not op["traced"]]
    traced = [op["result"] for op in passed if op["traced"]]

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if not args.trace:
        values = {
            "wall_ref": median_of([r["wall_ref"] for r in plain]),
            "setup_s": median_of([r["setup_s"] for r in setups + plain if "setup_s" in r]),
            "peak_rss_mb": median_of([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {k: v for k, v in values.items() if v is not None}
        units = END_TO_END
    elif traced:
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        metrics["trace.op_s"] = statistics.median(r["wall_s"] for r in traced)
        twins = [ops[i : i + 2] for i in range(0, len(ops) - 1, 2)]
        pairs = [
            sum(op["result"]["wall_s"] * (1 if op["traced"] else -1) for op in twin)
            for twin in twins
            if not twin[0]["problems"] and not twin[1]["problems"]
        ]
        if pairs:
            metrics["trace.overhead_s"] = statistics.median(pairs)
        units = LAYER_METRICS

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s": [r.get("setup_s") for r in setups],
        "ops": [
            {
                "index": op["index"],
                "traced": op["traced"],
                "problems": op["problems"],
                **{
                    k: op["result"].get(k)
                    for k in ("setup_s", "wall_s", "reference_s", "wall_ref", "peak_rss_mb", "error")
                },
            }
            for op in ops
        ],
        "metrics": metrics,
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if args.trace:
        dump = [
            [name, start, end, parent, op["index"]]
            for op in ops
            if op["traced"]
            for name, start, end, parent in op["result"].get("spans", [])
        ]
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(dump))

    print(f"perfbench {args.workload} seed={args.seed} order={plan['order']} trace={args.trace}")
    print(f"environment {json.dumps(env)}")
    print(f"operations {len(ops)} ({len(plain)} untraced passed), set-up-only workers {len(setups)}")
    print(f"error_rate {len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)})")
    if plain:
        print(
            f"wall_s median {statistics.median(r['wall_s'] for r in plain):.6g} s over {len(plain)} operations, "
            f"reference loop median {statistics.median(r['reference_s'] for r in plain):.6g} s"
        )
    if args.trace and "trace.op_s" in metrics:
        kernel = metrics["series.mul.s"] + metrics["series.invert.s"] + metrics["constructors.pochhammer.s"]
        print(f"kernel_share {kernel / metrics['trace.op_s']:.3f} (mul + invert + pochhammer over traced op)")
        print(f"oracle_share {metrics['oracle.s'] / metrics['trace.op_s']:.3f}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    correct = not failed and set(metrics) == set(units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
