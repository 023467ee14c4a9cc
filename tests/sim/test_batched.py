"""Tests for the wave-batched engine, engine dispatch and multi-core sharding."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.config.system import default_system_config
from repro.errors import SimulationError
from repro.kernel.builder import KernelBuilder
from repro.analyze.manager import analyze_kernel
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator
from repro.sim.launch import KernelLaunch
from repro.sim.multicore import shard_threads
from repro.workloads.matmul import MatmulWorkload

#: Counters the acceptance criteria require to be equal between engines.
OP_COUNTERS = ("alu_ops", "fpu_ops", "global_loads", "global_stores")


def _axpy_launch(n=48):
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


def test_batched_matches_event_bitwise():
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    event = simulate(compiled, launch, engine="event")
    batched = simulate(compiled, launch)
    assert np.array_equal(event.array("out"), batched.array("out"))
    event_counters = event.stats.as_dict()
    batched_counters = batched.stats.as_dict()
    for counter in event_counters:
        if counter in ("cycles", "engine"):  # provenance differs by design
            continue
        assert event_counters[counter] == batched_counters[counter], counter
    assert event_counters["engine"] == "event"
    assert batched_counters["engine"] == "batched"
    assert event_counters["cores"] == batched_counters["cores"] == 1


def test_graph_interthread_detection(scan_launch):
    launch, _ = scan_launch
    scan = analyze_kernel(compile_kernel(launch.graph))
    assert "RA041" in scan.codes()  # prefix sum uses an elevator
    assert "RA040" in analyze_kernel(compile_kernel(_axpy_launch().graph)).codes()


def test_auto_engine_picks_batched_for_interthread_free_graphs(scan_launch):
    launch, _ = scan_launch
    assert simulate(compile_kernel(launch.graph), launch).engine == "event"
    axpy = _axpy_launch()
    assert simulate(compile_kernel(axpy.graph), axpy).engine == "batched"


def test_batched_engine_rejects_interthread_graphs(scan_launch):
    launch, _ = scan_launch  # prefix sum: cyclic elevator chain
    compiled = compile_kernel(launch.graph)
    # The check runs only while the static tables are uncached, and a
    # rejected graph never caches them: every construction must raise.
    for _ in range(2):
        with pytest.raises(SimulationError, match="cannot run on the batched engine"):
            BatchedSimulator(compiled, launch)
    assert "_batched_static" not in compiled.__dict__


def test_batched_outputs_match_event_outputs():
    n = 16
    b = KernelBuilder("out_kernel", n)
    b.global_array("x", n)
    tid = b.thread_idx_x()
    b.output("doubled", b.load("x", tid) * 2.0)
    b.store("x", tid, b.load("x", tid))
    graph = b.finish()
    inputs = {"x": np.arange(n) * 1.5}
    compiled = compile_kernel(graph)
    event = simulate(compiled, KernelLaunch(graph, inputs), engine="event")
    batched = simulate(compiled, KernelLaunch(graph, inputs))
    assert batched.engine == "batched"
    assert event.output("doubled") == batched.output("doubled")


# ------------------------------------------------------------------ multicore
def test_shard_threads_is_block_cyclic():
    shards = shard_threads(12, cores=2, block=3)
    assert shards[0].tolist() == [0, 1, 2, 6, 7, 8]
    assert shards[1].tolist() == [3, 4, 5, 9, 10, 11]
    recombined = sorted(t for shard in shards for t in shard.tolist())
    assert recombined == list(range(12))


def test_multicore_matches_single_core():
    workload = MatmulWorkload()
    prepared = workload.prepare({"dim": 8})
    compiled = compile_kernel(prepared.launch("stream").graph)
    single = simulate(compiled, prepared.launch("stream"))
    multi = simulate(compiled, prepared.launch("stream"), cores=4)
    assert multi.cores == 4
    assert np.array_equal(single.array("c"), multi.array("c"))
    prepared.check_outputs({"c": multi.array("c")})
    assert multi.stats.threads == prepared.launch("stream").num_threads
    single_counters = single.stats.as_dict()
    multi_counters = multi.stats.as_dict()
    for counter in OP_COUNTERS:
        assert multi_counters[counter] == single_counters[counter], counter


def test_multicore_event_engine_agrees_with_batched():
    launch = _axpy_launch(n=32)
    compiled = compile_kernel(launch.graph)
    event = simulate(compiled, _axpy_launch(n=32), cores=3, engine="event")
    batched = simulate(compiled, _axpy_launch(n=32), cores=3)
    assert batched.engine == "batched"
    assert event.cores == batched.cores == 3
    assert np.array_equal(event.array("out"), batched.array("out"))
    for counter in OP_COUNTERS:
        assert event.stats.as_dict()[counter] == batched.stats.as_dict()[counter]


def test_multicore_rejects_interthread_graphs(scan_launch):
    """No legal cut: the request runs on one core and records why."""
    launch, _ = scan_launch
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch, cores=2)
    assert result.cores == 1
    assert result.stats.extra["shard_fallback_code"] == "RA030"


def test_simulate_falls_back_to_single_core_for_interthread(scan_launch):
    launch, data = scan_launch
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch, cores=4)
    np.testing.assert_allclose(result.array("prefix"), np.cumsum(data))


def test_simulate_uses_config_cores():
    from dataclasses import replace

    config = replace(default_system_config(), cores=2).validate()
    launch = _axpy_launch(n=24)
    compiled = compile_kernel(launch.graph, config)
    result = simulate(compiled, launch)
    assert result.cores == 2
    reference = _axpy_launch(n=24)
    expected = reference.inputs["x"] * 2.5 + reference.inputs["y"]
    np.testing.assert_allclose(result.array("out"), expected)


def test_multicore_counters_include_per_core_hierarchies():
    launch = _axpy_launch(n=32)
    compiled = compile_kernel(launch.graph)
    multi = simulate(compiled, launch, cores=2, engine="event")
    counters = multi.counters()
    # Two private hierarchies: each core pays its own compulsory misses.
    assert counters["l1_read_misses"] > 0
    per_core = [h.stats().flat()["l1_read_misses"] for h in multi.hierarchies]
    assert counters["l1_read_misses"] == sum(per_core)
