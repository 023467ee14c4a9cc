"""The one front door to the simulator stack: :func:`simulate`.

:func:`simulate` is the only timed run path.  It picks the engine (the
one place the engine is decided: ``"event"`` when forced, the static
analyzer's verdict otherwise), plans the multi-core cut
(:func:`repro.sim.multicore.plan_shards`), runs one simulator per shard
— a single-core run is the one-shard case — and returns a
:class:`SimulationResult` that records *what actually ran*: the
resolved engine (never ``"auto"``) and the core count, next to the
outputs, stats, memory image and per-core memory hierarchies.
"""

from __future__ import annotations

from functools import reduce
from typing import Any

from repro.compiler.pipeline import CompiledKernel
from repro.errors import SimulationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.shared_dram import SharedDRAM
from repro.obs.trace import CORE_LANE, active_mode, active_tracer
from repro.sim.batched import BatchedSimulator
from repro.sim.cycle import CycleSimulator
from repro.sim.launch import KernelLaunch
from repro.sim.multicore import ShardPlan, plan_shards, shard_threads
from repro.sim.result import SimulationResult
from repro.sim.stats import ExecutionStats

__all__ = ["ENGINES", "SimulationResult", "simulate"]

#: Engines selectable through :func:`simulate`.
ENGINES = ("auto", "event")


def simulate(
    compiled: CompiledKernel,
    launch: KernelLaunch,
    *,
    engine: str = "auto",
    cores: int | None = None,
) -> SimulationResult:
    """Run ``launch`` and return a :class:`SimulationResult`.

    ``engine`` is ``"auto"`` (default) or ``"event"``.  ``"event"`` forces
    the exact event-driven engine; ``"auto"`` runs the static analyzer's
    verdict (:func:`repro.analyze.analyze_kernel`, cached on the kernel):
    ``RA040`` (no inter-thread nodes) batched, ``RA044`` (feed-forward
    inter-thread traffic) window-batched and ``RA041`` event.  The
    engine that ran is what ``result.engine`` and
    ``stats.extra["engine"]`` report.

    ``cores`` (default ``SystemConfig.cores``) shards the launch
    block-cyclically across simulated cores when a window-aligned cut
    exists, falling back to one core otherwise with the reason in
    ``stats.extra["shard_fallback_reason"]`` and its analyzer code in
    ``stats.extra["shard_fallback_code"]``; the cut is the analyzer's
    (:func:`repro.sim.multicore.plan_shards`).

    All engines produce bit-identical outputs and identical operation
    counters; the batched engine's cycle counts and cache counters come
    from the analytic cache model (exact on order-stable traces, close
    estimates otherwise).
    """
    if engine not in ENGINES:
        raise SimulationError(f"unknown engine '{engine}'; expected one of {ENGINES}")
    if engine == "auto":
        # Looked up at call time so instrumentation wrapping the analyzer sees it.
        from repro.analyze.manager import analyze_kernel

        engine = analyze_kernel(compiled).engine
    simulator_class = CycleSimulator if engine == "event" else BatchedSimulator
    plan = plan_shards(compiled, cores)
    config = compiled.config
    shared = None
    core_memory = config.memory
    if plan.sharded:
        shared = SharedDRAM(config.memory.dram, line_bytes=config.memory.l2.line_bytes)
        core_memory = config.memory.sliced(plan.cores)
    image = launch.build_memory_image()
    tracer = active_tracer() if plan.sharded else None
    runs: list[SimulationResult] = []
    for core in range(plan.cores):
        hierarchy = MemoryHierarchy(core_memory, dram=shared.port() if shared else None)
        # Each engine derives core ``core``'s shard from the same plan.
        simulator = simulator_class(
            compiled, launch, hierarchy=hierarchy, memory=image, cores=plan.cores, core=core
        )
        if tracer is None:
            runs.append(simulator.run())
            continue
        begin = tracer.clock()
        run = simulator.run()
        threads = {"threads": run.stats.threads}
        tracer.wall_event(f"shard {core}", begin, args=threads)
        tracer.set_lane_name(core, CORE_LANE, "core span")
        span = float(run.cycles)
        tracer.event(f"core {core}", "shard", 0.0, span, pid=core, tid=CORE_LANE, args=threads)
        runs.append(run)

    result = runs[0] if not plan.sharded else _merge(compiled, plan, runs, shared)
    extra = result.stats.extra
    if plan.fallback_reason is not None:
        extra["shard_fallback_reason"] = plan.fallback_reason
        extra["shard_fallback_code"] = plan.fallback_code
    # Trace provenance: records say whether (and how) a run was traced.
    extra["trace"] = active_mode()
    return result


def _merge(
    compiled: CompiledKernel,
    plan: ShardPlan,
    runs: list[SimulationResult],
    shared: SharedDRAM | None,
) -> SimulationResult:
    """Combine per-core runs: stats merged, outputs gathered by thread."""
    stats: ExecutionStats = reduce(ExecutionStats.merge, (run.stats for run in runs))
    # The per-core "cores" entries summed to the active core count during the
    # merge; overwrite explicitly so provenance never depends on merge order.
    stats.extra["cores"] = len(runs)
    stats.extra["sharded_cores"] = len(runs)
    stats.extra["shard_block"] = plan.block
    stats.extra["shard_window_lcm"] = plan.window_lcm
    outputs: dict[str, list[Any]] = {}
    shards = shard_threads(compiled.num_threads, plan.cores, plan.block)
    for shard, run in zip(shards, runs):
        for name, values in run.outputs.items():
            slot = outputs.setdefault(name, [None] * compiled.num_threads)
            for tid in shard.tolist():
                slot[tid] = values[tid]
    return SimulationResult(
        cycles=stats.cycles,
        stats=stats,
        memory=runs[0].memory,
        outputs=outputs,
        engine=runs[0].engine,
        cores=len(runs),
        hierarchies=tuple(run.hierarchy for run in runs),
        plan=plan,
        shared_dram=shared,
    )
