"""Multi-core cycle scaling of a window-aligned communicating kernel.

The windowed reduce (an ELEVATOR chain per transmission window) is the
canonical kernel the window-aligned partitioner of
``repro.sim.multicore`` exists for: shard boundaries fall on multiples of
the 64-thread window, so the ELEVATOR traffic never crosses a core.  This
bench shards it across 1/2/4/8 cores, checks the equivalence contract
(no fallback, outputs bit-identical to the single-core run, equal
operation counters) and measures the simulated-cycle speedup under the
shared-DRAM memory model — the table quoted by ROADMAP.md's "Sharding
communicating kernels" section.  Each core count also runs on the event
engine, whose cycles are the oracle: a row whose ``auto`` cycles differ
from ``event_cycles`` by more than ``MAX_EVENT_DRIFT`` fails, as does a
core count that is slower than the one before it or 4 cores under 1.5x.
Usage::

    pytest benchmarks/bench_multicore_scaling.py -s
    python benchmarks/bench_multicore_scaling.py
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.common import add_json_option, write_json
from repro.compiler.pipeline import compile_kernel
from repro.sim import simulate
from repro.workloads.registry import get_workload

WORKLOAD = ("reduce", {"n": 2048, "window": 64}, "partials")
CORE_COUNTS = (1, 2, 4, 8)
#: Largest relative cycle difference from the event engine on one row.
MAX_EVENT_DRIFT = 0.01

#: Counters that must be exactly equal between core counts.
COMPARED_COUNTERS = (
    "alu_ops",
    "fpu_ops",
    "global_loads",
    "global_stores",
    "elevator_retags",
    "elevator_constants",
    "tokens_sent",
    "noc_hops",
)


def _measure() -> list[dict]:
    name, params, output = WORKLOAD
    workload = get_workload(name)
    prepared = workload.prepare(params)
    compiled = compile_kernel(prepared.launch("dmt").graph)

    rows: list[dict] = []
    baseline = None
    for cores in CORE_COUNTS:
        result = simulate(compiled, prepared.launch("dmt"), cores=cores)
        assert "shard_fallback_reason" not in result.stats.extra, (
            f"{name} fell back on {cores} cores "
            f"[{result.stats.extra.get('shard_fallback_code')}]: "
            f"{result.stats.extra.get('shard_fallback_reason')}"
        )
        assert "shard_fallback_code" not in result.stats.extra
        prepared.check_outputs({output: result.array(output)})
        if baseline is None:
            baseline = result
        else:
            assert np.array_equal(baseline.array(output), result.array(output)), (
                f"{name}: outputs on {cores} cores differ from the single-core run"
            )
            base_counters = baseline.stats.as_dict()
            counters = result.stats.as_dict()
            for counter in COMPARED_COUNTERS:
                assert counters[counter] == base_counters[counter], (
                    f"{name}: {counter} differs on {cores} cores "
                    f"({counters[counter]} vs {base_counters[counter]})"
                )
        event = simulate(compiled, prepared.launch("dmt"), cores=cores, engine="event")
        rows.append(
            {
                "cores": cores,
                "engine": result.engine,
                "cycles": result.cycles,
                "event_cycles": event.cycles,
                "speedup": baseline.cycles / result.cycles,
            }
        )
    return rows


def _check(rows: list[dict]) -> list[str]:
    """The gate's failures: event-engine drift and scaling."""
    failures = []
    for row in rows:
        drift = abs(row["cycles"] - row["event_cycles"]) / row["event_cycles"]
        if drift > MAX_EVENT_DRIFT:
            failures.append(
                f"{row['cores']} cores: {row['engine']} {row['cycles']} cycles vs event "
                f"{row['event_cycles']} ({drift:.1%} > {MAX_EVENT_DRIFT:.0%})"
            )
    for prev, cur in zip(rows, rows[1:]):
        if cur["cycles"] > prev["cycles"]:
            failures.append(
                f"{cur['cores']} cores slower than {prev['cores']} "
                f"({cur['cycles']} > {prev['cycles']} cycles)"
            )
    four = next(row for row in rows if row["cores"] == 4)
    if four["speedup"] < 1.5:
        failures.append(f"4 cores give {four['speedup']:.2f}x, under 1.5x")
    return failures


def _print_table(rows: list[dict]) -> None:
    name, params, _ = WORKLOAD
    print(f"\n{name} dMT ({params}) under simulate(cores=...), shared DRAM:")
    header = f"{'cores':>5} {'engine':>15} {'cycles':>8} {'event':>8} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['cores']:>5} {row['engine']:>15} {row['cycles']:>8} "
            f"{row['event_cycles']:>8} {row['speedup']:>7.2f}x"
        )


def test_windowed_reduce_scales_across_cores():
    rows = _measure()
    _print_table(rows)
    failures = _check(rows)
    assert not failures, "\n".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_json_option(parser)
    args = parser.parse_args(argv)
    rows = _measure()
    _print_table(rows)
    failures = _check(rows)
    for failure in failures:
        print(f"FAIL: {failure}")
    name, params, _ = WORKLOAD
    write_json(
        args.json,
        "multicore_scaling",
        rows,
        failures,
        extra={"workload": name, "params": params, "max_event_drift": MAX_EVENT_DRIFT},
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
