"""Spans around the calls between lambertq's layers, kept in memory.

`Tracer.install` rebinds the names each module looks up at call time to
timing wrappers, and restores every one of them on exit. Named-series builds
made by the suite go through the public `builder=` parameter, because the
default argument of `check_identity`/`run_suite` was bound at import.

A span is `[name, start, end, parent]`, where `parent` indexes the span that
was open when it started (-1 for none). A span's self time is its duration
minus the time its children cover. `layer_metrics` turns the spans of one
operation into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter
from typing import Callable, Iterator, Optional

from checks import IDENTITIES, ORACLE_SERIES, SERIES

PRODUCT_CALLS = ("pochhammer", "entry29_rhs", "bilateral_sum", "s_window", "d2_split_product")
HOOK = "trace.hook"


def _unit(name: str) -> str:
    if name.endswith(("calls", "coeffs", "builds", "builds_distinct")):
        return "count"
    if name.endswith("coeff_bits_max"):
        return "bits"
    return "s"


LAYER_METRICS: dict[str, str] = {
    name: _unit(name)
    for name in (
        *(f"series.{op}.{m}" for op in ("mul", "invert") for m in ("calls", "s", "coeff_bits_max")),
        "series.compare.calls",
        "series.compare.s",
        "series.init.calls",
        "series.init.coeffs",
        "series.init.s",
        *(f"constructors.{sid}.s" for sid in SERIES),
        "constructors.named_series.calls",
        *(f"constructors.{fn}.{m}" for fn in PRODUCT_CALLS for m in ("calls", "s")),
        "constructors.self_s",
        *(f"harness.{ident}.s" for ident in IDENTITIES),
        "harness.build_s",
        "harness.compare_s",
        "harness.self_s",
        "harness.builds",
        "harness.builds_distinct",
        *(f"oracle.{sid}.s" for sid in ORACLE_SERIES),
        "oracle.s",
        "cli.main.s",
        "cli.self_s",
        "trace.op_s",
        "trace.overhead_s",
    )
}


class Tracer:
    """Spans and counters of one operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self.bits: Counter[str] = Counter()
        self.coeffs = 0
        self.builds: list[tuple[str, int]] = []

    def timed(self, name, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap `fn` in a span. `name` is a string or a function of the first
        argument; `after(args, result)` runs once the span has closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name if isinstance(name, str) else name(args[0]), 0.0, 0.0, stack[-1]])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _bits_of(self, name: str) -> Callable:
        def hook(args, result) -> None:
            # timed as its own span so the caller's self time excludes it
            start = perf_counter()
            widest = max(
                max(map(int.bit_length, s.coefficients))
                for s in (*args, result)
                if hasattr(s, "coefficients")
            )
            self.bits[name] = max(self.bits[name], widest)
            self.spans.append([HOOK, start, perf_counter(), self._stack[-1]])

        return hook

    def _count_coeffs(self, args, result) -> None:
        self.coeffs += len(args[0].coefficients)

    def _record_build(self, args, result) -> None:
        self.builds.append((args[0].value, args[1]))

    @contextlib.contextmanager
    def install(self, series, constructors, harness, cli) -> Iterator[Callable]:
        """Rebind the layer boundaries of the given lambertq modules; yields
        the traced `named_series`."""
        sid_name = lambda sid: f"constructors.{sid.value}"  # noqa: E731
        named = self.timed(sid_name, constructors.named_series, self._record_build)
        run_suite = cli.run_suite

        def suite_with_traced_builder(order, builder=named):
            return run_suite(order, builder)

        mul_bits = self._bits_of("series.mul")
        plan = [
            (series, "mul", self.timed("series.mul", series.mul, mul_bits)),
            (constructors, "mul", self.timed("series.mul", constructors.mul, mul_bits)),
            (harness, "mul", self.timed("series.mul", harness.mul, mul_bits)),
            (
                series.TruncatedSeries,
                "invert",
                self.timed("series.invert", series.TruncatedSeries.invert, self._bits_of("series.invert")),
            ),
            (
                series.TruncatedSeries,
                "__init__",
                self.timed("series.init", series.TruncatedSeries.__init__, self._count_coeffs),
            ),
            (harness, "compare", self.timed("series.compare", harness.compare)),
            (harness, "parity_of", self.timed("series.parity_of", harness.parity_of)),
            (constructors, "pochhammer", self.timed("constructors.pochhammer", constructors.pochhammer)),
            *(
                (harness, fn, self.timed(f"constructors.{fn}", getattr(harness, fn)))
                for fn in PRODUCT_CALLS[1:]
            ),
            (
                harness,
                "check_identity",
                self.timed(lambda ident: f"harness.{ident.value}", harness.check_identity),
            ),
            (cli, "named_series", named),
            (cli, "run_suite", self.timed("harness.run_suite", suite_with_traced_builder)),
        ]
        saved = []
        try:
            for owner, attr, wrapper in plan:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield named
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation (all but the two `trace.`
    metrics, which compare traced and untraced runs)."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    build_s = compare_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        took = end - start
        total[name] += took
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += took - covered[i]
        if parent >= 0 and spans[parent][0].startswith("harness."):
            if name.startswith("constructors."):
                build_s += took
            elif name == "series.compare":
                compare_s += took

    m: dict[str, float] = {}
    for op in ("mul", "invert"):
        m[f"series.{op}.calls"] = calls[f"series.{op}"]
        m[f"series.{op}.s"] = total[f"series.{op}"]
        m[f"series.{op}.coeff_bits_max"] = tracer.bits[f"series.{op}"]
    m["series.compare.calls"] = calls["series.compare"]
    m["series.compare.s"] = total["series.compare"]
    m["series.init.calls"] = calls["series.init"]
    m["series.init.coeffs"] = tracer.coeffs
    m["series.init.s"] = total["series.init"]
    for sid in SERIES:
        m[f"constructors.{sid}.s"] = total[f"constructors.{sid}"]
    m["constructors.named_series.calls"] = len(tracer.builds)
    for fn in PRODUCT_CALLS:
        m[f"constructors.{fn}.calls"] = calls[f"constructors.{fn}"]
        m[f"constructors.{fn}.s"] = total[f"constructors.{fn}"]
    m["constructors.self_s"] = self_s["constructors"]
    for ident in IDENTITIES:
        m[f"harness.{ident}.s"] = total[f"harness.{ident}"]
    m["harness.build_s"] = build_s
    m["harness.compare_s"] = compare_s
    m["harness.self_s"] = self_s["harness"]
    m["harness.builds"] = len(tracer.builds)
    m["harness.builds_distinct"] = len(set(tracer.builds))
    for sid in ORACLE_SERIES:
        m[f"oracle.{sid}.s"] = total[f"oracle.{sid}"]
    m["oracle.s"] = sum(total[f"oracle.{sid}"] for sid in ORACLE_SERIES)
    m["cli.main.s"] = total["cli.main"]
    m["cli.self_s"] = self_s["cli"]
    return m
