"""Cross-engine fidelity of the batched engines' analytic memory model.

Runs every batchable workload variant of the registry — inter-thread-free
graphs on the wave-batched engine, window-batchable communicating
``dmt``/``dmt_win`` and scratchpad ``mt`` graphs on the window-batched
engine — on both
simulation engines and reports the per-counter relative error of the
analytic cache model against the event engine's exact one, across three
memory regimes:

* ``table2``   — the paper's default configuration (compulsory regime);
* ``capacity`` — a capacity-constrained 2-way 1 KiB L1, the
  cache-sensitivity regime the paper's evaluation cares about;
* ``thrash``   — small size/associativity sweeps at sizes where the
  load and store phases overlap in the event engine (the replay-order
  approximation's worst case).

Acceptance gates (also enforced by ``tests/sim/test_fidelity.py``):

* L1/L2 miss counts are **exactly equal** on the order-stable rows
  (``table2`` and ``capacity``, replay-ordered traces);
* cycle error is at most 10% on every row, thrashing sweeps and
  windowed-barrier kernels included;
* the batched run's memory model is the event engine's: every
  ``access_batch`` call, replayed through a fresh ``MemoryHierarchy``
  one access at a time, completes on the same cycles and leaves the
  same counters (``walk_identical``), over a non-empty replay;
* the scratch replay is the event engine's scratchpad: every scratch
  level's stream, replayed through ``Scratchpad.access`` one access at
  a time, completes on the same cycles and leaves the same counters
  (``scratch_identical``), and at least one ``mt`` row replays a
  non-empty scratch stream (``replayed_scratch_accesses``).

Run ``pytest benchmarks/bench_batched_fidelity.py -s`` for the full
table, or as a script (CI uses ``--quick`` in the fast lane)::

    python benchmarks/bench_batched_fidelity.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.common import add_json_option, run_against_hierarchy, write_json
from repro.compiler.pipeline import compile_kernel
from repro.config.system import SystemConfig, default_system_config
from repro.graph.index import KernelIndex
from repro.graph.interthread import window_batch_problem
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator
from repro.workloads.registry import all_workloads, available_variants

#: Counters whose event/batched equality is the exact-fidelity contract.
MISS_COUNTERS = (
    "l1_read_misses",
    "l1_write_misses",
    "l2_read_misses",
    "l2_write_misses",
)

#: Counters reported (relative error) but not gated exactly.
REPORTED_COUNTERS = MISS_COUNTERS + (
    "l1_read_hits",
    "l1_write_hits",
    "l1_writebacks",
    "l2_read_hits",
    "dram_reads",
    "dram_writes",
)

MAX_CYCLE_ERROR = 0.10

#: Small problem sizes per registry workload; the event engine runs
#: every row, so sizes stay modest.  Every workload appears, so the CI
#: fast-lane ``--quick`` gate samples at least one row per batchable
#: workload (its event-only variants are filtered out per graph).
QUICK_PARAMS = {
    "scan": {"n": 64},
    "matrixMul": {"dim": 12},
    "convolution": {"n": 192},
    "reduce": {"n": 192, "window": 16},
    "lud": {"dim": 8},
    "srad": {"dim": 8},
    "bpnn": {"n_in": 8, "n_out": 8},
    "hotspot": {"dim": 8},
    "pathfinder": {"cols": 48, "rows": 4},
    "spmv": {"rows": 12, "max_nnz": 4},
}
FULL_PARAMS = {
    "scan": {"n": 128},
    "matrixMul": {"dim": 16},
    "convolution": {"n": 256},
    "reduce": {"n": 256, "window": 32},
    "lud": {"dim": 12},
    "srad": {"dim": 12},
    "bpnn": {"n_in": 16, "n_out": 16},
    "hotspot": {"dim": 12},
    "pathfinder": {"cols": 96, "rows": 5},
    "spmv": {"rows": 24, "max_nnz": 8},
}
#: Overlapped-phase sizes for the thrashing sweep (full run only).
THRASH_PARAMS = {
    "scan": {"n": 128},
    "matrixMul": {"dim": 24},
    "convolution": {"n": 768},
    "reduce": {"n": 768, "window": 32},
    "lud": {"dim": 16},
    "srad": {"dim": 16},
    "bpnn": {"n_in": 32, "n_out": 24},
    "hotspot": {"dim": 16},
    "pathfinder": {"cols": 256, "rows": 5},
    "spmv": {"rows": 64, "max_nnz": 8},
}


def _with_l1(
    config: SystemConfig, size_bytes: int, ways: int, line_bytes: int | None = None
) -> SystemConfig:
    l1 = replace(config.memory.l1, size_bytes=size_bytes, ways=ways)
    if line_bytes is not None:
        l1 = replace(l1, line_bytes=line_bytes)
    return replace(config, memory=replace(config.memory, l1=l1)).validate()


def memory_regimes(quick: bool) -> list[tuple[str, SystemConfig, bool]]:
    """(label, config, order_stable) triples; order-stable rows gate misses
    exactly, the rest gate the cycle error only."""
    base = default_system_config()
    regimes = [
        ("table2", base, True),
        ("capacity-1KiB-2w", _with_l1(base, 1024, 2), True),
        # Mixed line sizes: several 32 B L1 lines share one 128 B L2 line,
        # exercising the per-level line re-alignment.
        ("capacity-32Bline", _with_l1(base, 1024, 2, line_bytes=32), True),
    ]
    if not quick:
        regimes += [
            ("thrash-512B-1w", _with_l1(base, 512, 1), False),
            ("thrash-2KiB-4w", _with_l1(base, 2048, 4), False),
        ]
    return regimes


def batchable_variants(params_by_workload) -> list[tuple[str, str, dict]]:
    """Every (workload, variant, params) a batched engine can run: graphs
    that are inter-thread-free or window-batchable.  Variants come from
    the registry's own declaration, never a hard-coded list."""
    cases = []
    for workload in all_workloads():
        if workload.name not in params_by_workload:
            continue
        params = workload.params_with_defaults(params_by_workload[workload.name])
        prepared = workload.prepare(params)
        for variant in available_variants(workload):
            graph = prepared.launch(variant).graph
            if window_batch_problem(KernelIndex.of(graph)) is not None:
                continue  # barrier/recurrence: event-engine only
            cases.append((workload.name, variant, params))
    return cases


def run_pair(name: str, variant: str, params: dict, config: SystemConfig) -> dict:
    """One workload variant on both engines; returns the comparison row.

    The batched engine additionally runs once against the event engine's
    memory hierarchy (:func:`run_against_hierarchy`): the vectorised
    per-set walk must be counter- and cycle-identical to it on every
    row — it is an implementation, not an approximation.
    """
    workload = next(w for w in all_workloads() if w.name == name)
    prepared = workload.prepare(params)
    compiled = compile_kernel(prepared.launch(variant).graph, config)
    event = simulate(compiled, prepared.launch(variant), engine="event")
    batched = simulate(compiled, prepared.launch(variant))  # auto: batched engine
    checked_sim = BatchedSimulator(compiled, prepared.launch(variant))
    ordered_trace = bool(checked_sim._static.ordered_loads)
    replay = run_against_hierarchy(checked_sim)
    checked = replay.result
    event_counters = event.counters()
    batched_counters = batched.counters()

    def _without_trace(counters: dict) -> dict:
        # simulate() stamps trace provenance on its result; the raw
        # checked run has none.  Not a model quantity — drop it.
        return {key: value for key, value in counters.items() if key != "trace"}

    walk_identical = (
        not replay.mismatches
        and batched.cycles == checked.cycles
        and _without_trace(batched_counters) == _without_trace(checked.counters())
    )

    def rel_error(key: str) -> float:
        reference = event_counters.get(key, 0)
        observed = batched_counters.get(key, 0)
        return abs(observed - reference) / max(1, abs(reference))

    return {
        "workload": name,
        "variant": variant,
        "engine": batched.engine,
        "ordered_trace": ordered_trace,
        "event_cycles": event.cycles,
        "batched_cycles": batched.cycles,
        "cycle_error": abs(batched.cycles - event.cycles) / max(1, event.cycles),
        "errors": {key: rel_error(key) for key in REPORTED_COUNTERS},
        "miss_exact": all(
            event_counters.get(key, 0) == batched_counters.get(key, 0)
            for key in MISS_COUNTERS
        ),
        "walk_identical": walk_identical,
        "replayed_accesses": replay.replayed,
        "scratch_identical": not replay.scratch_mismatches,
        "replayed_scratch_accesses": replay.scratch_replayed,
        "event": {key: event_counters.get(key, 0) for key in REPORTED_COUNTERS},
        "batched": {key: batched_counters.get(key, 0) for key in REPORTED_COUNTERS},
    }


def collect_rows(quick: bool) -> list[tuple[str, bool, dict]]:
    rows = []
    for regime, config, order_stable in memory_regimes(quick):
        params_map = QUICK_PARAMS if quick else FULL_PARAMS
        if regime.startswith("thrash"):
            params_map = THRASH_PARAMS
        for name, variant, params in batchable_variants(params_map):
            rows.append((regime, order_stable, run_pair(name, variant, params, config)))
    return rows


def check_rows(rows) -> list[str]:
    failures = []
    for regime, order_stable, row in rows:
        label = f"{row['workload']}/{row['variant']} @ {regime}"
        # Exact-miss gate applies to replay-ordered traces only (the
        # regime must be order-stable AND the kernel's trace replayable).
        if order_stable and row["ordered_trace"] and not row["miss_exact"]:
            detail = {
                key: (row["event"][key], row["batched"][key])
                for key in MISS_COUNTERS
                if row["event"][key] != row["batched"][key]
            }
            failures.append(f"{label}: L1/L2 miss counts not exact: {detail}")
        if row["cycle_error"] > MAX_CYCLE_ERROR:
            failures.append(
                f"{label}: cycle error {row['cycle_error']:.1%} "
                f"(event {row['event_cycles']}, batched {row['batched_cycles']}, "
                f"bar {MAX_CYCLE_ERROR:.0%})"
            )
        if not row["walk_identical"]:
            failures.append(
                f"{label}: vectorised tag walk diverges from the event engine's "
                "memory hierarchy (counters or cycles differ)"
            )
        if row["replayed_accesses"] == 0:
            failures.append(f"{label}: no access replayed through the hierarchy")
        if not row["scratch_identical"]:
            failures.append(
                f"{label}: scratch replay diverges from the event engine's "
                "scratchpad (completions or counters differ)"
            )
    if not any(
        row["variant"] == "mt" and row["replayed_scratch_accesses"] > 0
        for _, _, row in rows
    ):
        failures.append("no mt row replayed a scratch stream through the scratchpad")
    return failures


def print_table(rows) -> None:
    header = (
        f"{'regime':<17} {'workload':<12} {'variant':<7} {'ev cyc':>7} {'ba cyc':>7} "
        f"{'cyc err':>8} {'miss':>6} {'worst counter error':>24}"
    )
    print("\n" + header)
    print("-" * len(header))
    for regime, _, row in rows:
        worst_key = max(row["errors"], key=row["errors"].get)
        worst = row["errors"][worst_key]
        print(
            f"{regime:<17} {row['workload']:<12} {row['variant']:<7} "
            f"{row['event_cycles']:>7} {row['batched_cycles']:>7} "
            f"{row['cycle_error']:>7.2%} {'exact' if row['miss_exact'] else 'DRIFT':>6} "
            f"{worst_key + ' ' + format(worst, '.1%'):>24}"
        )


def test_batched_fidelity_gates():
    """pytest entry point: full table, both gates."""
    rows = collect_rows(quick=False)
    print_table(rows)
    failures = check_rows(rows)
    assert not failures, "\n".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI fast-lane subset: order-stable regimes at small sizes",
    )
    add_json_option(parser)
    args = parser.parse_args(argv)
    rows = collect_rows(quick=args.quick)
    print_table(rows)
    failures = check_rows(rows)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        gates = (
            "exact L1/L2 misses on order-stable rows, cycle error <= 10% "
            "everywhere, vectorised walk == event hierarchy replay, "
            "scratch replay == event scratchpad"
        )
        print(f"\nall {len(rows)} rows pass ({gates})")
    write_json(
        args.json,
        "batched_fidelity",
        [dict(row, regime=regime, order_stable=stable) for regime, stable, row in rows],
        failures,
        extra={"quick": args.quick, "max_cycle_error": MAX_CYCLE_ERROR},
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
