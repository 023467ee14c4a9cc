"""Tests for the cycle-level CGRA simulator."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.config.system import default_system_config
from repro.errors import DeadlockError
from repro.graph.opcodes import SOURCE_OPCODES, Opcode
from repro.graph.semantics import PURE_OPCODES
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.cycle import _FIRING_RULES, CycleSimulator
from repro.sim.functional import run_functional
from repro.sim.launch import KernelLaunch
from repro.workloads.convolution import ConvolutionWorkload
from repro.workloads.reduce import ReduceWorkload


def test_cycle_results_match_functional(scan_launch):
    launch, data = scan_launch
    compiled = compile_kernel(launch.graph)
    cycle = simulate(compiled, launch)
    functional = run_functional(launch)
    np.testing.assert_allclose(cycle.array("prefix"), functional.array("prefix"))
    assert cycle.cycles > 0


def test_stats_reflect_interthread_communication(scan_launch):
    launch, _ = scan_launch
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch)
    n = launch.num_threads
    assert result.stats.elevator_retags == n - 1
    assert result.stats.elevator_constants == 1
    assert result.stats.global_loads == n
    assert result.stats.global_stores == n
    assert result.stats.scratch_loads == 0
    assert result.stats.barrier_arrivals == 0


def test_mt_variant_uses_scratchpad_and_barriers():
    workload = ConvolutionWorkload()
    params = {"n": 64, "k0": 0.25, "k1": 0.5, "k2": 0.25}
    prepared = workload.prepare(params)
    launch = prepared.launch("mt")
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch)
    assert result.stats.barrier_arrivals == 64
    assert result.stats.scratch_stores == 64
    assert result.stats.scratch_loads == 3 * 64
    prepared.check_outputs({"out": result.array("out")})


def test_dmt_variant_avoids_scratchpad():
    workload = ConvolutionWorkload()
    params = {"n": 64, "k0": 0.25, "k1": 0.5, "k2": 0.25}
    prepared = workload.prepare(params)
    launch = prepared.launch("dmt")
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch)
    assert result.stats.scratch_loads == 0
    assert result.stats.barrier_arrivals == 0
    assert result.stats.elevator_retags > 0
    prepared.check_outputs({"out": result.array("out")})


def test_windowed_reduce_runs_on_cycle_simulator():
    workload = ReduceWorkload()
    params = {"n": 64, "window": 16}
    prepared = workload.prepare(params)
    launch = prepared.launch("dmt")
    result = simulate(compile_kernel(launch.graph), launch)
    prepared.check_outputs({"partials": result.array("partials")})


def test_memory_hierarchy_counters_are_exposed():
    workload = ConvolutionWorkload()
    prepared = workload.prepare({"n": 64, "k0": 0.25, "k1": 0.5, "k2": 0.25})
    launch = prepared.launch("dmt")
    result = simulate(compile_kernel(launch.graph), launch)
    counters = result.counters()
    assert counters["dram_reads"] > 0
    assert counters["l1_read_misses"] > 0


def test_deadlock_detection_reports_unretired_threads():
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
    with pytest.raises(DeadlockError):
        CycleSimulator(compiled, KernelLaunch(graph, {})).run()


def test_noc_hops_match_mapped_route_lengths():
    """noc_hops counts each token's true mapped hop count exactly once."""
    n = 8
    b = KernelBuilder("hops", n)
    b.global_array("in_data", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    b.store("out", tid, -b.load("in_data", tid))  # load -> neg -> store
    graph = b.finish()
    compiled = compile_kernel(graph)
    launch = KernelLaunch(graph, {"in_data": np.arange(float(n))})
    result = simulate(compiled, launch, engine="event")
    hops = compiled.index.edge_hops
    expected_hops_per_thread = sum(hops[(edge.src, edge.dst)] for edge in compiled.index.edges)
    assert result.stats.noc_hops == n * expected_hops_per_thread


def test_noc_hops_independent_of_latency_parameters():
    """Hop counts must not scale with hop_latency or injection_latency."""
    from dataclasses import replace

    from repro.config.system import NocConfig

    n = 8
    results = []
    for noc in (
        NocConfig(hop_latency=1, injection_latency=1),
        NocConfig(hop_latency=3, injection_latency=0),
        NocConfig(hop_latency=1, injection_latency=4),
    ):
        b = KernelBuilder("hops_cfg", n)
        b.global_array("in_data", n)
        b.global_array("out", n)
        tid = b.thread_idx_x()
        b.store("out", tid, -b.load("in_data", tid))
        graph = b.finish()
        config = replace(default_system_config(), noc=noc)
        compiled = compile_kernel(graph, config)
        launch = KernelLaunch(graph, {"in_data": np.arange(float(n))})
        result = simulate(compiled, launch, engine="event")
        hops = compiled.index.edge_hops
        expected = n * sum(hops[(e.src, e.dst)] for e in compiled.index.edges)
        assert result.stats.noc_hops == expected
        results.append(result.stats.noc_hops)
    # Same seed, same placement: identical hop counts across NoC timings.
    assert len(set(results)) == 1


def test_replicas_increase_injection_rate():
    config = default_system_config()
    workload = ConvolutionWorkload()
    prepared = workload.prepare({"n": 128, "k0": 0.25, "k1": 0.5, "k2": 0.25})
    launch = prepared.launch("dmt")
    compiled = compile_kernel(launch.graph, config)
    assert compiled.replicas > 1


def test_every_opcode_is_pure_a_source_or_has_a_firing_rule():
    assert PURE_OPCODES | set(SOURCE_OPCODES) | set(_FIRING_RULES) == set(Opcode)
