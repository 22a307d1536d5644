"""Run one benchmark operation cold, in the interpreter that started it.

`run.py` starts a fresh interpreter for every operation, so nothing a
previous operation built or cached can serve this one, as for a user who
runs `lambertq verify` from a shell. The single argument is a JSON spec:

    {"src": ".../src", "workload": "suite", "order": 1000, "series": [...],
     "setup_only": false, "traced": false, "fault": null}

The worker prints one JSON object: `setup_s` (from its first statement until
lambertq is imported and the inputs are prepared), and unless `setup_only`,
`wall_s` (the operation), `reference_s` (a fixed loop timed around it),
`wall_ref` (their ratio), `peak_rss_mb`, the captured `output`, an `error`
string if the operation raised, and for a traced run its spans and
per-layer metrics. Outputs are checked by the caller, after the timer.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

REFERENCE_ITERATIONS = 2_500_000  # about 0.2 s


def _import_lambertq(src: str):
    sys.path[:0] = [src, str(Path(__file__).resolve().parent)]
    import lambertq
    from lambertq import cli, constructors, harness, oracle, series

    if not Path(lambertq.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"lambertq was imported from {lambertq.__file__}, not from {src}")
    return series, constructors, harness, oracle, cli


def _reference_loop() -> float:
    """Wall time of a fixed pure-Python integer loop.

    The machine's speed drifts by 10-30 % over tens of seconds on a shared
    VM; timing this loop just before and after the operation measures that
    drift where the operation ran, so `wall_ref` cancels it.
    """
    start = time.perf_counter()
    acc = 0
    for k in range(REFERENCE_ITERATIONS):
        acc += k * k
    return time.perf_counter() - start


def _cli(main, argv: list[str]) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return [rc, buf.getvalue()]


def _inject_raising_check(harness) -> None:
    """Make one identity check raise, so `verify --all` ends in SuiteError."""
    original = harness.check_identity

    def check_identity(ident, *args, **kwargs):
        if ident is harness.IdentityId.I9_LEMMA2:
            raise RuntimeError("injected fault in I9_LEMMA2")
        return original(ident, *args, **kwargs)

    harness.check_identity = check_identity


def main() -> None:
    spec = json.loads(sys.argv[1])
    series, constructors, harness, oracle, cli = _import_lambertq(spec["src"])
    order, workload = spec["order"], spec["workload"]
    if workload == "suite":
        argv = ["verify", "--all", "--order", str(order), "--format", "json"]
    elif workload == "expand":
        argvs = [(sid, ["expand", sid, "--order", str(order), "--format", "json"]) for sid in spec["series"]]
    else:
        sids = [constructors.SeriesId(sid) for sid in spec["series"]]
    setup_s = time.perf_counter() - STARTED
    if spec["setup_only"]:
        json.dump({"setup_s": setup_s}, sys.stdout)
        return

    if spec["fault"] == "raise":
        _inject_raising_check(harness)
    cli_main, named_series, oracle_expand = cli.main, constructors.named_series, oracle.oracle_expand
    tracer = None
    with contextlib.ExitStack() as stack:
        if spec["traced"]:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            named_series = stack.enter_context(tracer.install(series, constructors, harness, cli))
            cli_main = tracer.timed("cli.main", cli_main)
            oracle_expand = tracer.timed(lambda sid: f"oracle.{sid.value}", oracle_expand)

        error = None
        output = None
        reference_s = _reference_loop()
        start = time.perf_counter()
        try:
            if workload == "suite":
                rc, stdout = _cli(cli_main, argv)
                output = {"rc": rc, "stdout": stdout}
            elif workload == "expand":
                output = [[sid, *_cli(cli_main, argv)] for sid, argv in argvs]
            else:
                output = [
                    [
                        sid.value,
                        list(oracle_expand(sid, order).coefficients),
                        list(named_series(sid, order).coefficients),
                    ]
                    for sid in sids
                ]
        except Exception as exc:  # noqa: BLE001 - reported to the runner as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_s = (reference_s + _reference_loop()) / 2

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_ref": wall_s / reference_s,
        "reference_s": reference_s,
        "peak_rss_mb": peak_rss_mb,
        "error": error,
        "output": output,
    }
    if tracer is not None:
        result["spans"] = [[name, t0 - start, t1 - start, parent] for name, t0, t1, parent in tracer.spans]
        result["layers"] = layer_metrics(tracer)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
