"""Window-aligned multi-core sharding of communicating kernels."""

import dataclasses
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batched
import repro.sim.cycle
from repro.analyze import analyze_kernel
from repro.compiler.pipeline import compile_kernel
from repro.config.system import default_system_config
from repro.errors import SimulationError
from repro.harness.experiments import run_workload
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator
from repro.sim.cycle import CycleSimulator
from repro.sim.launch import KernelLaunch
from repro.sim.multicore import core_threads, plan_shards, shard_threads
from repro.workloads.registry import get_workload, registry_kernels

#: Counters that must be equal between a sharded and a single-core run.
OP_COUNTERS = (
    "alu_ops",
    "fpu_ops",
    "global_loads",
    "global_stores",
    "elevator_retags",
    "elevator_constants",
    "eldst_forwards",
    "eldst_memory_loads",
    "tokens_sent",
    "noc_hops",
)

#: Memory counters a sharded batched run must share with the event engine.
MEMORY_COUNTERS = (
    "l1_read_misses",
    "l1_write_misses",
    "l2_read_misses",
    "l2_write_misses",
    "dram_reads",
    "dram_writes",
)


def _windowed_elevator_launch(n=64, window=8, distance=1):
    """A windowed neighbour-sum kernel (one ELEVATOR per thread pair)."""
    b = KernelBuilder("windowed_sum", n)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    value = b.load("x", tid)
    b.tag_value("v", value)
    left = b.from_thread_or_const("v", -distance, 0.0, window=window)
    b.store("out", tid, value + left)
    graph = b.finish()
    data = np.arange(1.0, n + 1.0)
    return KernelLaunch(graph, {"x": data}), data


def _mixed_window_launch(n=48):
    """Two elevators with windows 4 and 6 — the legal cut is their LCM, 12."""
    b = KernelBuilder("mixed_windows", n)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    value = b.load("x", tid)
    b.tag_value("v", value)
    a = b.from_thread_or_const("v", -1, 0.0, window=4)
    c = b.from_thread_or_const("v", -1, 0.0, window=6)
    b.store("out", tid, value + a + c)
    graph = b.finish()
    return KernelLaunch(graph, {"x": np.arange(1.0, n + 1.0)})


def _barrier_only_launch(n=32, window=None):
    """A barrier with no scratchpad traffic: values just pass through."""
    b = KernelBuilder("barrier_only", n)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    value = b.load("x", tid)
    gated = b.barrier(value, window=window)
    b.store("out", tid, gated * 2.0)
    graph = b.finish()
    data = np.arange(1.0, n + 1.0)
    return KernelLaunch(graph, {"x": data}), data


# ------------------------------------------------------------------ planner
def test_plan_requires_bounded_windows(scan_launch):
    launch, _ = scan_launch
    compiled = compile_kernel(launch.graph)
    plan = plan_shards(compiled, cores=4)
    assert not plan.sharded
    assert "no bounded transmission window" in plan.fallback_reason
    assert plan.fallback_code == "RA030"


def test_plan_aligns_block_to_window_lcm():
    launch = _mixed_window_launch(n=48)
    compiled = compile_kernel(launch.graph)
    plan = plan_shards(compiled, cores=2)
    assert plan.sharded
    assert plan.window_lcm == 12
    assert plan.block % 12 == 0


def _whole_windows(shard, window, num_threads):
    """Brute force: every window of the launch lies wholly in or out of ``shard``."""
    present = set(shard.tolist())
    for start in range(0, num_threads, window):
        group = set(range(start, min(start + window, num_threads)))
        if group & present and not group <= present:
            return False
    return True


def test_plan_rounds_default_block_up_to_the_window():
    """A window larger than the replica count forces the block up."""
    launch, _ = _windowed_elevator_launch(n=64, window=16)
    compiled = compile_kernel(launch.graph)
    assert compiled.replicas < 16
    plan = plan_shards(compiled, cores=2)
    assert plan.sharded
    assert plan.block == 16
    for shard in shard_threads(64, 2, plan.block):
        assert _whole_windows(shard, 16, 64)


def test_plan_falls_back_when_window_spans_the_block():
    launch, _ = _windowed_elevator_launch(n=32, window=32)
    compiled = compile_kernel(launch.graph)
    plan = plan_shards(compiled, cores=4)
    assert not plan.sharded
    assert "span the whole block" in plan.fallback_reason
    assert plan.fallback_code == "RA032"


def test_plan_single_core_never_reports_fallback():
    launch, _ = _windowed_elevator_launch(n=32, window=32)
    compiled = compile_kernel(launch.graph)
    plan = plan_shards(compiled, cores=1)
    assert plan.fallback_reason is None
    assert plan.fallback_code is None
    assert not plan.sharded


# ------------------------------------------------------------- shard_threads
def test_shard_threads_more_cores_than_threads():
    shards = shard_threads(3, cores=8, block=1)
    assert len(shards) == 8
    assert [s.tolist() for s in shards[:3]] == [[0], [1], [2]]
    assert all(s.size == 0 for s in shards[3:])


def test_multicore_skips_empty_shards():
    launch, data = _windowed_elevator_launch(n=16, window=8)
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch, cores=8)
    # Only two windows exist, so only two cores get work.
    assert result.cores == 2
    assert result.stats.threads == 16


# ------------------------------------------------------- sharded equivalence
def test_windowed_elevator_shards_bit_identically():
    launch, _ = _windowed_elevator_launch(n=64, window=8)
    compiled = compile_kernel(launch.graph)
    single = simulate(compiled, _windowed_elevator_launch(n=64, window=8)[0])
    multi = simulate(compiled, launch, cores=4)
    assert multi.cores == 4
    assert "shard_fallback_reason" not in multi.stats.extra
    assert np.array_equal(single.array("out"), multi.array("out"))
    single_counters = single.stats.as_dict()
    multi_counters = multi.stats.as_dict()
    for counter in OP_COUNTERS:
        assert multi_counters[counter] == single_counters[counter], counter


def test_reduce_dmt_shards_on_four_cores():
    """The acceptance scenario: an ELEVATOR workload on SystemConfig(cores=4)
    without fallback, bit-identical to the single-core run."""
    workload = get_workload("reduce")
    prepared = workload.prepare({"n": 256, "window": 64})
    compiled = compile_kernel(prepared.launch("dmt").graph)
    single = simulate(compiled, prepared.launch("dmt"), cores=1)
    multi = simulate(compiled, prepared.launch("dmt"), cores=4)
    assert multi.cores == 4
    assert "shard_fallback_reason" not in multi.stats.extra
    assert multi.stats.extra["sharded_cores"] == 4
    assert np.array_equal(single.array("partials"), multi.array("partials"))
    prepared.check_outputs({"partials": multi.array("partials")})
    single_counters = single.stats.as_dict()
    multi_counters = multi.stats.as_dict()
    for counter in OP_COUNTERS:
        assert multi_counters[counter] == single_counters[counter], counter


def test_matmul_windowed_dmt_shards_on_four_cores():
    workload = get_workload("matrixMul")
    prepared = workload.prepare({"dim": 8})
    compiled = compile_kernel(prepared.launch("dmt_win").graph)
    single = simulate(compiled, prepared.launch("dmt_win"), cores=1)
    multi = simulate(compiled, prepared.launch("dmt_win"), cores=4)
    assert multi.cores == 4
    assert "shard_fallback_reason" not in multi.stats.extra
    assert np.array_equal(single.array("c"), multi.array("c"))
    prepared.check_outputs({"c": multi.array("c")})
    single_counters = single.stats.as_dict()
    multi_counters = multi.stats.as_dict()
    for counter in OP_COUNTERS:
        assert multi_counters[counter] == single_counters[counter], counter
    # Row forwarding still eliminates the redundant A loads: dim^3 B loads
    # plus dim^2 forwarded A loads, versus 2*dim^3 for the streaming kernel.
    dim = 8
    assert single_counters["global_loads"] == dim**3 + dim**2


def test_matmul_full_dmt_still_falls_back():
    """The fully-forwarded matmul's column chains span the block; the
    planner must refuse to cut it and record why."""
    workload = get_workload("matrixMul")
    prepared = workload.prepare({"dim": 8})
    compiled = compile_kernel(prepared.launch("dmt").graph)
    result = simulate(compiled, prepared.launch("dmt"), cores=4)
    assert "shard_fallback_reason" in result.stats.extra
    assert result.stats.extra["shard_fallback_code"] == "RA030"
    prepared.check_outputs({"c": result.array("c")})


# ------------------------------------------------------------- barrier paths
def test_barrier_only_graph_shards_with_per_shard_barrier():
    launch, data = _barrier_only_launch(n=32)
    compiled = compile_kernel(launch.graph)
    single = simulate(compiled, _barrier_only_launch(n=32)[0])
    multi = simulate(compiled, launch, cores=4)
    assert multi.cores == 4
    assert "shard_fallback_reason" not in multi.stats.extra
    assert np.array_equal(single.array("out"), multi.array("out"))
    np.testing.assert_allclose(multi.array("out"), data * 2.0)
    assert multi.stats.barrier_arrivals == single.stats.barrier_arrivals == 32


def test_windowed_barrier_releases_groups_independently():
    whole, _ = _barrier_only_launch(n=32, window=None)
    windowed, data = _barrier_only_launch(n=32, window=8)
    whole_result = simulate(compile_kernel(whole.graph), whole)
    win_result = simulate(compile_kernel(windowed.graph), windowed)
    np.testing.assert_allclose(win_result.array("out"), data * 2.0)
    # Each group of 8 releases as soon as it completes, so threads wait
    # (strictly) less than behind one whole-block barrier.
    assert win_result.stats.barrier_wait_cycles < whole_result.stats.barrier_wait_cycles


def test_scratch_coupled_barrier_falls_back():
    workload = get_workload("reduce")
    prepared = workload.prepare({"n": 256, "window": 64})
    compiled = compile_kernel(prepared.launch("mt").graph)
    result = simulate(compiled, prepared.launch("mt"), cores=4)
    assert "scratchpad" in result.stats.extra["shard_fallback_reason"]
    assert result.stats.extra["shard_fallback_code"] == "RA031"
    prepared.check_outputs({"partials": result.array("partials")})


# ---------------------------------------------------------------- core index
@pytest.mark.parametrize("simulator", [CycleSimulator, BatchedSimulator], ids=["event", "batched"])
@pytest.mark.parametrize("cores,core", [(4, -1), (4, 4), (8, 2)], ids=["negative", "past", "empty"])
def test_core_outside_the_plan_is_rejected(simulator, cores, core):
    """A core index the shard plan has no shard for fails at construction;
    eight cores over two windows is a two-core plan."""
    launch, _ = _windowed_elevator_launch(n=16, window=8)
    compiled = compile_kernel(launch.graph)
    with pytest.raises(SimulationError, match=f"core {core} is outside"):
        simulator(compiled, launch, cores=cores, core=core)


def test_fallback_plan_runs_the_launch_on_core_zero(scan_launch):
    launch, _ = scan_launch
    compiled = compile_kernel(launch.graph)
    assert core_threads(compiled, 4, 0).tolist() == list(range(compiled.num_threads))
    with pytest.raises(SimulationError, match="outside the 1-core shard plan"):
        core_threads(compiled, 4, 1)


def test_simulate_records_fallback_reason(scan_launch):
    launch, data = scan_launch
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch, cores=4)
    assert "no bounded transmission window" in result.stats.extra["shard_fallback_reason"]
    assert result.stats.extra["shard_fallback_code"] == "RA030"
    np.testing.assert_allclose(result.array("prefix"), np.cumsum(data))
    # The reason string must survive the counters() merge for benchmarks.
    assert "shard_fallback_reason" in result.counters()
    assert result.counters()["shard_fallback_code"] == "RA030"


# ------------------------------------------------------------------- harness
def test_harness_runs_windowed_variant_on_four_cores():
    config = dataclasses.replace(default_system_config(), cores=4).validate()
    result = run_workload("reduce", "dmt", params={"n": 256, "window": 64}, config=config)
    assert result.counters["sharded_cores"] == 4
    result_win = run_workload("matrixMul", "dmt_win", params={"dim": 8}, config=config)
    assert result_win.counters["sharded_cores"] == 4
    assert "shard_fallback_reason" not in result_win.counters
    assert "shard_fallback_code" not in result_win.counters


# ------------------------------------------------- sharded cross-engine pin
def _sharded_batched_cells():
    """Registry cells ``engine="auto"`` runs batched on four cores (the
    dispatch pin records the resolution, so no cell is compiled to find
    out)."""
    dispatch = json.loads(Path(__file__).with_name("dispatch_pin.json").read_text())
    cells = []
    for workload, variant in registry_kernels():
        pinned = dispatch[f"{workload.name}/{variant}"]["auto@cores=4"]
        if pinned["engine"] in ("batched", "window-batched") and pinned["cores"] == 4:
            cells.append((workload, variant))
    return cells


SHARDED_BATCHED_CELLS = _sharded_batched_cells()


@pytest.mark.parametrize(
    "workload,variant",
    SHARDED_BATCHED_CELLS,
    ids=[f"{w.name}/{v}" for w, v in SHARDED_BATCHED_CELLS],
)
def test_sharded_batched_run_matches_the_event_engine(workload, variant):
    """Both engines queue on the one shared DRAM device, so a 4-core
    batched run has the event engine's outputs, misses and DRAM traffic,
    and its cycles wherever the analyzer marks the load replay order
    stable (RA043)."""
    prepared = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name))
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)
    batched = simulate(compiled, launch, engine="auto", cores=4)
    event = simulate(compiled, launch, engine="event", cores=4)
    assert batched.cores == event.cores == 4
    for name in prepared.expected:
        assert np.array_equal(batched.array(name), event.array(name)), name
    want, got = event.counters(), batched.counters()
    assert {key: got[key] for key in MEMORY_COUNTERS} == {
        key: want[key] for key in MEMORY_COUNTERS
    }
    if "RA043" in analyze_kernel(compiled).codes():
        assert batched.cycles == event.cycles


def test_sharded_batched_cells_cover_both_batched_engines():
    names = {f"{w.name}/{v}" for w, v in SHARDED_BATCHED_CELLS}
    assert {"reduce/stream", "reduce/dmt", "matrixMul/dmt_win"} <= names


# ------------------------------------------------------- sharding property
def _shard_property_launch(n, distance, elevator_window, barrier, barrier_window):
    """An ELEVATOR neighbour sum, optionally behind a (windowed) BARRIER."""
    b = KernelBuilder("shard_property", n)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    value = b.load("x", tid)
    b.tag_value("v", value)
    moved = value + b.from_thread_or_const("v", distance, 0.5, window=elevator_window)
    if barrier:
        moved = b.barrier(moved, window=barrier_window)
    b.store("out", tid, moved * 2.0)
    return KernelLaunch(b.finish(), {"x": np.arange(1.0, n + 1.0)})


def _recording(real, ran):
    def record(compiled, cores, core):
        threads = real(compiled, cores, core)
        ran.append(threads)
        return threads

    return record


#: A bounded window, or (one draw in thirteen) none at all.
windows = st.sampled_from([*range(1, 13), None])


@pytest.mark.slow
@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(8, 96),
    distance=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    elevator_window=windows,
    barrier=st.booleans(),
    barrier_window=windows,
    replicas=st.integers(1, 8),
    cores=st.sampled_from([2, 3, 4]),
    engine=st.sampled_from(["auto", "event"]),
)
def test_every_shard_is_a_union_of_whole_windows(
    n, distance, elevator_window, barrier, barrier_window, replicas, cores, engine
):
    """Each engine runs exactly the shards of the analyzer's plan: every
    thread once, every shard a union of whole windows of every
    communicating node, and the sharded run equal to the single-core run
    in outputs and op counters."""
    launch = _shard_property_launch(n, distance, elevator_window, barrier, barrier_window)
    config = dataclasses.replace(default_system_config(), max_graph_replicas=replicas)
    compiled = compile_kernel(launch.graph, config.validate())
    single = simulate(compiled, launch, engine=engine, cores=1)
    ran: list[np.ndarray] = []
    with mock.patch.object(
        repro.sim.cycle, "core_threads", _recording(repro.sim.cycle.core_threads, ran)
    ), mock.patch.object(
        repro.sim.batched, "core_threads", _recording(repro.sim.batched.core_threads, ran)
    ):
        multi = simulate(compiled, launch, engine=engine, cores=cores)

    assert len(ran) == multi.cores <= cores
    assert (multi.cores > 1) != ("shard_fallback_code" in multi.stats.extra)
    assert sorted(np.concatenate(ran).tolist()) == list(range(n))
    bounded = [elevator_window] if elevator_window else []
    if barrier and barrier_window:
        bounded.append(barrier_window)
    for shard in ran:
        for window in bounded:
            assert _whole_windows(shard, window, n), (window, shard.tolist())

    assert multi.engine == single.engine
    assert np.array_equal(single.array("out"), multi.array("out"))
    single_counters = single.stats.as_dict()
    multi_counters = multi.stats.as_dict()
    for counter in (*OP_COUNTERS, "barrier_arrivals"):
        assert multi_counters[counter] == single_counters[counter], counter
