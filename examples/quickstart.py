#!/usr/bin/env python3
"""Quickstart: write a dMT-CGRA kernel, compile it, and simulate it.

The kernel is the paper's prefix-sum example (Fig. 6): every thread loads
one element, receives the running sum from thread ``tid - 1`` through the
fabric (``fromThreadOrConst``), adds its element, tags the new sum for the
next thread (``tagValue``) and stores its prefix sum — no shared memory,
no barrier.

Run with::

    python examples/quickstart.py

Expected output: the functional interpreter verifies the prefix sum of
256 elements, the compile report lists the mapped kernel (5 nodes, one
elevator, no barriers), the cycle-accurate run prints cycles / memory
accesses / energy, and a traced re-run writes ``quickstart_trace.json``
next to a top-5 per-node cycle profile.  Exit status 0.
"""

from __future__ import annotations

import numpy as np

from repro import (
    KernelBuilder,
    KernelLaunch,
    compile_kernel,
    default_system_config,
    run_functional,
    simulate,
)
from repro.obs import ChromeTracer, render_node_profile, tracing
from repro.power import cgra_energy


def build_prefix_sum(n: int):
    """Build the Fig. 6 prefix-sum dataflow graph for a block of ``n`` threads."""
    builder = KernelBuilder("quickstart_scan", n)
    builder.global_array("in_data", n)
    builder.global_array("prefix", n)

    tid = builder.thread_idx_x()
    value = builder.load("in_data", tid)

    # Receive the running sum from thread tid-1 (threads without a producer
    # receive the constant 0.0), add our element, and pass the result on.
    running = builder.from_thread_or_const("sum", -1, 0.0)
    total = running + value
    builder.tag_value("sum", total)

    builder.store("prefix", tid, total)
    return builder.finish()


def main() -> None:
    n = 256
    rng = np.random.default_rng(0)
    data = rng.uniform(0.0, 1.0, n)

    graph = build_prefix_sum(n)
    launch = KernelLaunch(graph, {"in_data": data})

    # 1. Functional interpreter: the correctness oracle.
    functional = run_functional(launch)
    assert np.allclose(functional.array("prefix"), np.cumsum(data))
    print(f"functional interpreter: prefix sum of {n} elements verified")

    # 2. Compile for the Table 2 system: legalise elevators, replicate, map, route.
    config = default_system_config()
    compiled = compile_kernel(graph, config)
    print()
    print(compiled.report())

    # 3. Cycle-level simulation on the dMT-CGRA core.  simulate() picks
    # the engine: this kernel's elevator chain is a recurrence, so the
    # resolved engine is the exact event-driven one.
    result = simulate(compiled, launch)
    assert np.allclose(result.array("prefix"), np.cumsum(data))
    energy = cgra_energy(result.counters(), compiled)
    print()
    print(f"cycle-level simulation : {result.cycles} cycles ({result.engine} engine)")
    print(f"tokens retagged        : {result.stats.elevator_retags}")
    print(f"global memory accesses : {result.stats.global_loads + result.stats.global_stores}")
    print(f"energy                 : {energy.total_uj:.3f} uJ")
    print(f"  of which leakage     : {energy.fraction('leakage'):.1%}")

    # 4. Trace the same run.  Simulating under an ambient ChromeTracer
    # captures every node firing, token arrival and memory access; the
    # export is Chrome trace-event JSON (load trace.json in Perfetto) and
    # also feeds the per-node cycle profile.  Tracing costs nothing when
    # no tracer is installed — the engines check one pointer per hook.
    tracer = ChromeTracer()
    with tracing(tracer):
        simulate(compiled, KernelLaunch(graph, {"in_data": data}))
    tracer.export_file("quickstart_trace.json")
    print()
    print(f"traced re-run          : {len(tracer)} events -> quickstart_trace.json")
    print(render_node_profile(tracer.export(), top=5))


if __name__ == "__main__":
    main()
