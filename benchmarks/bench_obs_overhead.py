"""Tracing overhead of the observability layer on the speedup-gate rows.

The instrumentation seam is one ambient-tracer pointer comparison per
hook (:func:`repro.obs.trace.active_tracer`), so a run with tracing off
must cost the same as a run that never heard of tracing.  No
uninstrumented build exists to compare against, so the baseline is the
same engine timed under an *explicit* ``tracing(None)`` — bit-identical
code path today, which makes the gate a pure noise guard now and a real
regression tripwire the moment the off path stops being the
pointer-compare path.  Ring-buffer and full tracing are measured and
reported alongside but not gated (they are opt-in, and their cost is the
events, not the seam).

Protocol: the same five workload rows as ``bench_engine_speedup.py`` at
4096 threads, batched engines only (the event engine is never the
default at these sizes and would push the CI lane past its budget).
Shared CI runners drift by integer factors between rounds, so absolute
best-of times are useless for a 2% bar; instead every round times the
baseline and each mode back to back and the reported overhead is the
*minimum per-round ratio* — noise within a round is correlated and
cancels in the ratio, while a real seam regression inflates every
round's ratio and still trips the gate.  Gate: tracing-off within 2% of
baseline on every row::

    python benchmarks/bench_obs_overhead.py [--threads 4096] [--json out.json]
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.bench_engine_speedup import cases_for_threads
from benchmarks.common import add_json_option, write_json
from repro.compiler.pipeline import compile_kernel
from repro.obs.trace import ChromeTracer, tracing
from repro.sim import simulate
from repro.workloads.registry import get_workload

#: Tracing-off must stay within 2% of the explicit-``tracing(None)``
#: baseline (same code path; the margin absorbs timer noise).
MAX_OFF_OVERHEAD = 0.02

#: Timing rounds; the gate takes the minimum per-round overhead ratio.
ROUNDS = 6

MODES = ("baseline", "off", "ring", "full")


def _timed(compiled, prepared, variant: str, mode: str) -> float:
    launch = prepared.launch(variant)
    tracer = None
    if mode == "ring":
        tracer = ChromeTracer(limit=4096)
    elif mode == "full":
        tracer = ChromeTracer()
    gc.collect()
    if mode == "off":
        start = time.perf_counter()
        simulate(compiled, launch)
        return time.perf_counter() - start
    start = time.perf_counter()
    with tracing(tracer):
        simulate(compiled, launch)
    return time.perf_counter() - start


def _run_case(name: str, variant: str, params: dict, expected_engine: str) -> dict:
    workload = get_workload(name)
    prepared = workload.prepare(params)
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)

    warm = simulate(compiled, prepared.launch(variant))
    assert warm.engine == expected_engine, (
        f"{name}/{variant}: auto dispatch resolved to '{warm.engine}' "
        f"(expected '{expected_engine}')"
    )
    best = {mode: math.inf for mode in MODES}
    ratio = {mode: math.inf for mode in MODES if mode != "baseline"}
    for _ in range(ROUNDS):
        base = _timed(compiled, prepared, variant, "baseline")
        best["baseline"] = min(best["baseline"], base)
        for mode in ("off", "ring", "full"):
            seconds = _timed(compiled, prepared, variant, mode)
            best[mode] = min(best[mode], seconds)
            ratio[mode] = min(ratio[mode], seconds / base)

    return {
        "workload": name,
        "variant": variant,
        "engine": warm.engine,
        "threads": launch.num_threads,
        **{f"{mode}_seconds": best[mode] for mode in MODES},
        **{f"{mode}_overhead": ratio[mode] - 1.0 for mode in ratio},
        "max_off_overhead": MAX_OFF_OVERHEAD,
    }


def _print_table(rows: list[dict]) -> None:
    header = (
        f"{'workload':<14} {'variant':<8} {'engine':<15} {'threads':>8} "
        f"{'base [s]':>9} {'off':>7} {'ring':>7} {'full':>7}"
    )
    print("\n" + header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['workload']:<14} {row['variant']:<8} {row['engine']:<15} "
            f"{row['threads']:>8} {row['baseline_seconds']:>9.3f} "
            f"{row['off_overhead']:>+6.1%} {row['ring_overhead']:>+6.1%} "
            f"{row['full_overhead']:>+6.1%}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threads",
        type=int,
        default=4096,
        help="approximate thread count per case (default: %(default)s)",
    )
    add_json_option(parser)
    args = parser.parse_args(argv)
    if args.threads < 2:
        parser.error("--threads must be >= 2")

    rows = [
        _run_case(name, variant, params, engine)
        for name, variant, params, _output, engine, _bar in cases_for_threads(args.threads)
    ]
    _print_table(rows)
    failures = [
        f"{row['workload']}/{row['variant']}: tracing-off overhead "
        f"{row['off_overhead']:+.1%} exceeds {MAX_OFF_OVERHEAD:.0%}"
        for row in rows
        if row["off_overhead"] > MAX_OFF_OVERHEAD
    ]
    for failure in failures:
        print(f"FAIL: {failure}")
    write_json(
        args.json,
        "obs_overhead",
        rows,
        failures,
        extra={"threads": args.threads},
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
