"""Tests for execution statistics and the launch descriptor."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.kernel.builder import KernelBuilder
from repro.sim.launch import KernelLaunch
from repro.sim.stats import ExecutionStats


def test_stats_bump_known_and_extra_counters():
    stats = ExecutionStats()
    stats.bump("alu_ops", 5)
    stats.bump("custom_counter", 2)
    assert stats.alu_ops == 5
    assert stats.extra["custom_counter"] == 2
    assert stats.as_dict()["custom_counter"] == 2


def test_stats_derived_properties():
    stats = ExecutionStats(cycles=100, alu_ops=50, fpu_ops=30, control_ops=20)
    assert stats.compute_ops == 80


def test_stats_merge_sums_counters_and_maxes_cycles():
    a = ExecutionStats(cycles=100, alu_ops=10, threads=4)
    b = ExecutionStats(cycles=250, alu_ops=5, threads=4)
    merged = a.merge(b)
    assert merged.cycles == 250
    assert merged.alu_ops == 15
    assert merged.threads == 8


def test_stats_merge_preserves_float_extras():
    a = ExecutionStats(threads=2)
    a.bump("dram_energy_pj", 1.25)
    b = ExecutionStats(threads=2)
    b.bump("dram_energy_pj", 2.5)
    merged = a.merge(b)
    assert merged.extra["dram_energy_pj"] == pytest.approx(3.75)


def test_stats_merge_sums_instructions_per_lane():
    # A volume (active lanes per issued instruction), summed like every
    # other counter.
    a = ExecutionStats(threads=32, instructions_per_lane=100)
    b = ExecutionStats(threads=96, instructions_per_lane=200)
    assert a.merge(b).instructions_per_lane == 300


def _graph():
    b = KernelBuilder("launch_test", 8)
    b.global_array("in_data", 8)
    b.global_array("out", 8)
    tid = b.thread_idx_x()
    b.store("out", tid, b.load("in_data", tid))
    return b.finish()


def test_launch_builds_memory_image_from_inputs():
    graph = _graph()
    launch = KernelLaunch(graph, {"in_data": np.arange(8.0)})
    assert launch.num_threads == 8
    image = launch.build_memory_image()
    assert image.load("in_data", 3) == 3.0
    assert image.load("out", 3) == 0.0


def test_launch_rejects_unknown_inputs_and_raw_graphs():
    graph = _graph()
    with pytest.raises(SimulationError):
        KernelLaunch(graph, {"nope": np.zeros(8)})
    from repro.graph.dfg import DataflowGraph

    with pytest.raises(SimulationError):
        KernelLaunch(DataflowGraph("bare"), {})
