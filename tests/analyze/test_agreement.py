"""Static verdicts agree with dynamic behavior across the whole registry.

Acceptance contract of the analyzer (see ROADMAP "Kernel static
analysis"): for every registry workload x available graph variant,

* the engine-eligibility verdict matches what ``engine="auto"`` dispatch
  actually constructs;
* the replay-order verdict matches the batched engine's prepass decision;
* the shardability verdict and code match ``plan_shards``'s actual
  shard-or-fallback decision;
* the deadlock pass flags (only) kernels that raise ``DeadlockError`` —
  every registry kernel is deadlock-free and runs to completion, while
  the canonical opposing-elevator kernel is flagged AND deadlocks;
* the critical-path bound is a true lower bound on measured single-core
  cycles.
"""

import pytest

from repro.analyze import analyze_kernel
from repro.compiler.pipeline import compile_kernel
from repro.errors import DeadlockError, SimulationError
from repro.kernel.builder import KernelBuilder
from repro.graph.interthread import window_batch_problem
from repro.graph.opcodes import Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator
from repro.sim.cycle import CycleSimulator
from repro.sim.launch import KernelLaunch
from repro.sim.multicore import plan_shards
from repro.workloads.registry import all_workloads, registry_kernel_count

#: Small problem sizes so the sweep stays in the fast lane.
SMALL_PARAMS = {
    "scan": {"n": 32},
    "matrixMul": {"dim": 4},
    "convolution": {"n": 32, "k0": 0.25, "k1": 0.5, "k2": 0.25},
    "reduce": {"n": 32, "window": 8},
    "lud": {"dim": 6},
    "bpnn": {"n_in": 8, "n_out": 8},
    "hotspot": {"dim": 8},
    "pathfinder": {"cols": 32, "rows": 3},
    "srad": {"dim": 8},
    "spmv": {"rows": 8, "max_nnz": 4},
}

#: Pinned (engine, order_stable, shardable) verdict for every registry
#: kernel.  The engine verdicts carry RA040 (batched), RA044
#: (window-batched: feed-forward inter-thread traffic, barrier-separated
#: scratch levels) or RA041+RA045 (event-only); order_stable=False
#: carries RA042 (data-dependent load indices force per-node replay).
#: The mt kernels' whole-block barriers keep them unshardable (RA031).
#: A change here is an architectural change and must be deliberate.
EXPECTED_VERDICTS = {
    ("scan", "mt"): ("window-batched", True, False),
    ("scan", "dmt"): ("event", True, False),
    ("scan", "stream"): ("batched", True, True),
    ("matrixMul", "mt"): ("window-batched", True, False),
    ("matrixMul", "dmt"): ("window-batched", True, False),
    ("matrixMul", "dmt_win"): ("window-batched", True, True),
    ("matrixMul", "stream"): ("batched", True, True),
    ("convolution", "mt"): ("window-batched", True, False),
    ("convolution", "dmt"): ("window-batched", True, False),
    ("convolution", "dmt_win"): ("window-batched", True, True),
    ("convolution", "stream"): ("batched", True, True),
    ("reduce", "mt"): ("window-batched", True, False),
    ("reduce", "dmt"): ("window-batched", True, True),
    ("reduce", "dmt_win"): ("window-batched", True, True),
    ("reduce", "stream"): ("batched", True, True),
    ("lud", "mt"): ("window-batched", True, False),
    ("lud", "dmt"): ("window-batched", True, False),
    ("lud", "dmt_win"): ("window-batched", True, True),
    ("lud", "stream"): ("batched", True, True),
    ("srad", "mt"): ("window-batched", True, False),
    ("srad", "dmt"): ("window-batched", True, False),
    ("srad", "dmt_win"): ("window-batched", True, True),
    ("srad", "stream"): ("batched", True, True),
    ("bpnn", "mt"): ("window-batched", True, False),
    ("bpnn", "dmt"): ("window-batched", True, False),
    ("bpnn", "stream"): ("batched", True, True),
    ("hotspot", "mt"): ("window-batched", True, False),
    ("hotspot", "dmt"): ("window-batched", True, False),
    ("hotspot", "dmt_win"): ("window-batched", True, True),
    ("hotspot", "stream"): ("batched", True, True),
    ("pathfinder", "mt"): ("window-batched", True, False),
    ("pathfinder", "dmt"): ("window-batched", True, False),
    ("pathfinder", "dmt_win"): ("window-batched", True, True),
    ("pathfinder", "stream"): ("batched", True, True),
    ("spmv", "mt"): ("window-batched", False, False),
    ("spmv", "dmt"): ("window-batched", False, True),
    ("spmv", "dmt_win"): ("window-batched", False, True),
    ("spmv", "stream"): ("batched", False, True),
}


def _variant_graphs(workload):
    params = workload.params_with_defaults(SMALL_PARAMS.get(workload.name))
    yield "mt", workload.build_mt(params)
    yield "dmt", workload.build_dmt(params)
    if workload.has_windowed_variant():
        yield "dmt_win", workload.build_dmt_windowed(params)
    yield "stream", workload.build_stream(params)


def _registry_cases():
    for workload in all_workloads():
        for variant, graph in _variant_graphs(workload):
            yield pytest.param(workload, variant, graph, id=f"{workload.name}-{variant}")


CASES = list(_registry_cases())


def test_case_sweep_is_the_whole_registry():
    """The parametrized sweep below must cover every declared registry
    kernel — the count is derived from the registry itself, never
    hard-coded, so a new workload or variant grows the sweep (and the
    pinned verdict table) automatically or fails loudly here."""
    assert len(CASES) == registry_kernel_count()
    assert {(w.name, v) for w, v, _ in (p.values for p in CASES)} == set(EXPECTED_VERDICTS)


@pytest.mark.parametrize("workload,variant,graph", CASES)
def test_registry_kernel_analyzes_clean(workload, variant, graph):
    """Every shipped workload x variant carries no error/warning findings."""
    result = analyze_kernel(compile_kernel(graph))
    assert result.ok, [d.format() for d in result.errors() + result.warnings()]
    assert not result.deadlock


@pytest.mark.parametrize("workload,variant,graph", CASES)
def test_registry_verdicts_are_pinned(workload, variant, graph):
    """Every registry kernel's (engine, order_stable, shardable) verdict
    matches the pinned table, and the RA04x code set follows: RA042 for
    the order-unstable spmv gather kernels (mt included), RA041+RA045 for
    scan's cyclic recurrence, the one event-only registry kernel."""
    result = analyze_kernel(compile_kernel(graph))
    engine, order_stable, shardable = EXPECTED_VERDICTS[(workload.name, variant)]
    assert result.engine == engine
    assert result.order_stable == order_stable
    assert result.shard.shardable == shardable
    codes = set(result.codes())
    if engine != "event":
        # RA042 marks data-dependent load indices on a batched engine —
        # the per-node replay fallback; RA043 its order-stability cousin.
        assert ("RA042" in codes) == (not order_stable)
        assert ("RA043" in codes) == order_stable
    else:
        assert {"RA041", "RA045"} <= codes


@pytest.mark.parametrize("workload,variant,graph", CASES)
def test_static_verdicts_match_dynamic_dispatch(workload, variant, graph):
    compiled = compile_kernel(graph)
    result = analyze_kernel(compiled)

    # Engine eligibility: the static verdict agrees with the graph
    # predicates the engines check, and IS the auto dispatch.
    graph = compiled.graph
    if not graph.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST, Opcode.BARRIER):
        assert result.engine == "batched"
    elif window_batch_problem(compiled.index) is None:
        assert result.engine == "window-batched"
    else:
        assert result.engine == "event"
    prepared = workload.prepare(workload.params_with_defaults(SMALL_PARAMS.get(workload.name)))
    launch = prepared.launch(variant)
    simulator_class = CycleSimulator if result.engine == "event" else BatchedSimulator
    simulator = simulator_class(compiled, launch)
    assert simulator.engine == result.engine

    # Window-batchability verdict codes travel with the engine verdict.
    codes = set(result.codes())
    if result.engine == "window-batched":
        assert "RA044" in codes and "RA041" not in codes
    elif result.engine == "event":
        assert {"RA041", "RA045"} <= codes
    else:
        assert "RA040" in codes

    # Replay-order stability: the batched engines' prepass decision.
    if result.engine in ("batched", "window-batched"):
        assert simulator._static.ordered_loads == result.order_stable

    # Shardability: verdict and code match the planner's actual decision.
    plan = plan_shards(compiled, cores=4)
    assert plan.sharded == result.shard.shardable
    assert plan.fallback_code == result.shard.fallback_code
    if plan.sharded:
        assert plan.window_lcm == result.shard.window_lcm

    # No deadlock statically predicted; the kernel must run to completion
    # and the measured cycles must respect the static lower bound.  The
    # resolved engine recorded in the run's provenance must equal the
    # static verdict (never "auto").
    run = simulate(compiled, launch)
    assert run.cycles >= result.min_cycles
    assert run.engine == result.engine
    assert run.stats.extra["engine"] == result.engine


def test_deadlock_pass_flags_exactly_the_deadlocking_kernel():
    n = 4
    b = KernelBuilder("deadlock", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    fwd = b.from_thread_or_const("y", +1, 0.0)
    bwd = b.from_thread_or_const("y", -1, 0.0)
    val = fwd + bwd
    b.tag_value("y", val)
    b.store("out", tid, val)
    graph = b.finish()
    compiled = compile_kernel(graph)
    assert analyze_kernel(compiled).deadlock  # statically flagged...
    with pytest.raises(DeadlockError):  # ...and it really deadlocks
        CycleSimulator(compiled, KernelLaunch(graph, {})).run()


def test_overlapping_scratch_levels_stay_on_the_event_engine():
    """A scratch load ordered only by its own thread's store (no barrier)
    has a level that interleaves with the store level in time: the event
    engine's scratch stream alternates between the two levels, so no
    level-by-level replay is exact.  The verdict keeps the kernel on the
    event engine and RA045 names the unseparated level."""
    n = 1024
    b = KernelBuilder("scratch_overlap", n)
    b.global_array("out", n)
    b.scratch_array("s", n)
    tid = b.thread_idx_x()
    ack = b.scratch_store("s", tid, tid)
    b.store("out", tid, b.scratch_load("s", tid, order=ack))
    graph = b.finish()
    compiled = compile_kernel(graph)

    result = analyze_kernel(compiled)
    assert result.engine == "event"
    assert {"RA041", "RA045"} <= set(result.codes())
    (reason,) = [d.message for d in result.diagnostics if d.code == "RA045"]
    assert "scratch level 2" in reason and "may overlap scratch level 1" in reason
    with pytest.raises(SimulationError, match="may overlap scratch level 1"):
        BatchedSimulator(compiled, KernelLaunch(graph, {}))

    hierarchy = MemoryHierarchy(compiled.config.memory)
    writes: list[bool] = []
    access = hierarchy.scratchpad.access

    def logged(address, is_write, cycle):
        writes.append(is_write)
        return access(address, is_write, cycle)

    hierarchy.scratchpad.access = logged
    run = CycleSimulator(compiled, KernelLaunch(graph, {}), hierarchy=hierarchy).run()
    assert run.engine == "event"
    # The levels really interleave: a store follows some load.
    assert writes.index(False) < len(writes) - 1 - writes[::-1].index(True)
    assert list(run.array("out")) == list(range(n))
