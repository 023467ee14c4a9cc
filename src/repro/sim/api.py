"""The one front door to the simulator stack: :func:`simulate`.

:func:`simulate` is the only timed run path.  It resolves the engine
(:func:`resolve_engine`, the one place the engine is decided), plans the
multi-core cut (:func:`repro.sim.multicore.plan_shards`), runs one
simulator per shard — a single-core run is the one-shard case — and
returns a :class:`SimulationResult` that records *what actually ran*:
the resolved engine (never ``"auto"``) and the core count, next to the
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

__all__ = ["ENGINES", "SimulationResult", "resolve_engine", "simulate"]

#: The simulator class behind each resolved engine name.  One batched class
#: serves both batched verdicts; it names itself after the graph.
_SIMULATORS = {
    "event": CycleSimulator,
    "batched": BatchedSimulator,
    "window-batched": BatchedSimulator,
}

#: Engines selectable through :func:`simulate`.
ENGINES = ("auto", *_SIMULATORS)


def resolve_engine(
    compiled: CompiledKernel, engine: str = "auto", memory: MemoryHierarchy | None = None
) -> str:
    """The engine a :func:`simulate` request runs on.

    The static analyzer's verdict, cached on the kernel, names the
    fastest engine able to execute the graph: ``RA040`` (no inter-thread
    nodes) batched, ``RA044`` (window-batchable) window-batched and
    ``RA041`` event.  ``"auto"`` resolves to that verdict, or to
    ``"event"`` when the caller hands over a ``memory`` hierarchy (it
    wants that hierarchy's exact, event-accurate counters).  A forced
    engine is honoured when it is ``"event"`` or the verdict and degraded
    to the verdict otherwise, so a sweep forcing ``"batched"`` over a
    barrier kernel runs window-batched or event instead of failing.
    """
    if engine not in ENGINES:
        raise SimulationError(f"unknown engine '{engine}'; expected one of {ENGINES}")
    if engine == "event" or (engine == "auto" and memory is not None):
        return "event"
    # Looked up at call time so instrumentation wrapping the analyzer sees it.
    from repro.analyze.manager import analyze_kernel

    return analyze_kernel(compiled).engine


def simulate(
    compiled: CompiledKernel,
    launch: KernelLaunch,
    *,
    engine: str = "auto",
    cores: int | None = None,
    memory: MemoryHierarchy | None = None,
) -> SimulationResult:
    """Run ``launch`` and return a :class:`SimulationResult`.

    ``engine`` selects the execution engine: ``"event"`` (exact
    event-driven), ``"batched"`` (batched NumPy, inter-thread-free
    graphs), ``"window-batched"`` (the same engine on feed-forward
    communicating graphs) or ``"auto"`` (default), which
    picks the fastest engine able to execute the graph — the static
    analyzer's engine verdict.  A forced engine is degraded to a capable
    one when the graph demands it (:func:`resolve_engine`); the
    *resolved* engine is what ``result.engine`` and
    ``stats.extra["engine"]`` report, and a degraded run records the
    original request in ``stats.extra["requested_engine"]``.

    ``cores`` (default ``SystemConfig.cores``) shards the launch
    block-cyclically across simulated cores when a window-aligned cut
    exists, falling back to one core otherwise with the reason in
    ``stats.extra["shard_fallback_reason"]`` and its analyzer code in
    ``stats.extra["shard_fallback_code"]``; the cut is the analyzer's
    (:func:`repro.sim.multicore.plan_shards`).  Passing an explicit
    ``memory`` hierarchy pins the run to a single core on that hierarchy
    (and ``"auto"`` then resolves to the event engine, whose counters are
    exact on the caller's hierarchy object).

    All engines produce bit-identical outputs and identical operation
    counters; the batched engine's cycle counts and cache counters come
    from the analytic cache model (exact on order-stable traces, close
    estimates otherwise).
    """
    resolved = resolve_engine(compiled, engine, memory)
    if memory is not None:
        if cores is not None and int(cores) != 1:
            raise SimulationError(
                "an explicit memory hierarchy pins the run to a single core; "
                "drop cores= or pass cores=1"
            )
        cores = 1
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
        if memory is None:
            hierarchy = MemoryHierarchy(core_memory, dram=shared.port() if shared else None)
        else:
            hierarchy = memory
        # Each engine derives core ``core``'s shard from the same plan.
        simulator = _SIMULATORS[resolved](
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
    if engine not in ("auto", resolved):
        extra["requested_engine"] = engine
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
