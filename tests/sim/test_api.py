"""Tests for :func:`repro.sim.simulate`, the one timed run path."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.errors import SimulationError
from repro.kernel.builder import KernelBuilder
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim import SimulationResult, simulate
from repro.sim.launch import KernelLaunch
from repro.workloads.registry import get_workload


def _axpy_launch(n=24):
    b = KernelBuilder("axpy", n)
    b.global_array("x", n)
    b.global_array("y", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    value = b.fma(b.load("x", tid), b.const(2.5), b.load("y", tid))
    b.store("out", tid, value)
    graph = b.finish()
    inputs = {"x": np.arange(n) * 0.37, "y": np.arange(n) * -1.2 + 0.5}
    return KernelLaunch(graph, inputs)


def test_simulate_records_resolved_engine_never_auto():
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch)  # engine="auto"
    assert isinstance(result, SimulationResult)
    assert result.engine == "batched"
    assert result.stats.extra["engine"] == "batched"
    assert result.counters()["engine"] == "batched"
    assert result.cores == 1


def test_simulate_rejects_unknown_engine():
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    with pytest.raises(SimulationError, match="unknown engine"):
        simulate(compiled, launch, engine="warp")


def test_simulate_memory_kwarg_pins_single_core():
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    hierarchy = MemoryHierarchy(compiled.config.memory)
    result = simulate(compiled, launch, memory=hierarchy)
    assert result.engine == "event"  # explicit hierarchy wants exact counters
    assert result.cores == 1
    assert result.hierarchy is hierarchy
    assert hierarchy.l1.stats.accesses > 0
    with pytest.raises(SimulationError, match="single core"):
        simulate(compiled, _axpy_launch(), memory=hierarchy, cores=2)
    # cores=1 is redundant but legal next to an explicit hierarchy.
    simulate(compiled, _axpy_launch(), memory=MemoryHierarchy(compiled.config.memory), cores=1)


def test_simulate_sharded_result_has_no_single_hierarchy():
    launch = _axpy_launch(n=32)
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch, cores=2)
    assert result.cores == 2
    with pytest.raises(SimulationError, match="per core"):
        result.hierarchy
    assert len(result.hierarchies) == 2
    assert result.plan is not None and result.plan.sharded
    assert result.shared_dram is not None


def test_single_core_result_carries_no_shard_provenance():
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch)
    assert result.plan is None and result.shared_dram is None
    assert len(result.hierarchies) == 1
    # One core: the counters are the stats plus that core's hierarchy.
    assert result.counters() == {**result.stats.as_dict(), **result.hierarchy.stats().flat()}


@pytest.mark.parametrize(
    "name,variant,engine,resolved",
    [
        ("scan", "dmt", "batched", "event"),
        ("reduce", "dmt", "batched", "window-batched"),
        ("scan", "dmt", "window-batched", "event"),
    ],
)
def test_forced_engine_with_memory_degrades_like_without(name, variant, engine, resolved):
    """A forced engine degrades to a capable one whether or not the caller
    passes a hierarchy, and the degraded run says what was asked for."""
    workload = get_workload(name)
    prepared = workload.prepare({"n": 64, "window": 16} if name == "reduce" else {"n": 64})
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)
    hierarchy = MemoryHierarchy(compiled.config.memory)
    result = simulate(compiled, launch, engine=engine, memory=hierarchy)
    assert result.engine == resolved
    assert result.stats.extra["requested_engine"] == engine
    assert result.hierarchy is hierarchy
    assert hierarchy.l1.stats.accesses > 0
    prepared.check_outputs({k: result.array(k) for k in prepared.expected})
    unpinned = simulate(compiled, prepared.launch(variant), engine=engine)
    assert unpinned.engine == resolved
