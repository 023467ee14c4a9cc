"""Tests for :func:`repro.sim.simulate`, the one timed run path."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.errors import SimulationError
from repro.kernel.builder import KernelBuilder
from repro.sim import SimulationResult, simulate
from repro.sim.launch import KernelLaunch


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
    """Only ``auto`` and ``event`` are selectable; the batched engines are
    what ``auto`` resolves to, not names a caller passes."""
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    for engine in ("warp", "batched", "window-batched"):
        with pytest.raises(SimulationError, match="unknown engine.*'auto', 'event'"):
            simulate(compiled, launch, engine=engine)


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
