"""Tests for the batched engine on communicating kernels (``window-batched``).

The acceptance contract mirrors the inter-thread-free case: bit-identical
outputs and identical operation counters against the event engine, with
the cycle count and cache counters produced by the analytic replay.
"""

import numpy as np
import pytest

from repro.analyze.manager import analyze_kernel
from repro.compiler.pipeline import compile_kernel
from repro.errors import SimulationError
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.functional import run_functional
from repro.sim.batched import BatchedSimulator
from repro.sim.launch import KernelLaunch
from repro.workloads.registry import get_workload

#: Counters the acceptance criteria require to be equal between engines.
OP_COUNTERS = ("alu_ops", "fpu_ops", "global_loads", "global_stores")


def _prepared(name, variant, params):
    workload = get_workload(name)
    prepared = workload.prepare(params)
    launch = prepared.launch(variant)
    return prepared, compile_kernel(launch.graph), launch


def _shift_input(n):
    return np.arange(n) * 1.25 + 3.0


def _shift_launch(n=24, distance=1, const=99.0, window=None):
    """Feed-forward elevator chain: out[t] = x[t - distance]; threads whose
    source lies before the block or their window get ``const``."""
    b = KernelBuilder("shift", n)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    value = b.load("x", tid)
    b.tag_value("v", value)
    recv = b.from_thread_or_const("v", -distance, const, window=window)
    b.store("out", tid, recv)
    graph = b.finish()
    return KernelLaunch(graph, {"x": _shift_input(n)})


def _windowed_eldst_launch(n=32, window=8):
    """eLDST chain with Δ=1: each window's head loads x[head]; the rest of
    the window receive it through the loop-back path, never from memory."""
    b = KernelBuilder("windowed_eldst", n)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    lane = tid % window
    value = b.from_thread_or_mem("x", tid - lane, lane.eq(0), src_offset=-1, window=window)
    b.store("out", tid, value)
    graph = b.finish()
    return KernelLaunch(graph, {"x": np.arange(n) * 0.5 + 1.0})


@pytest.mark.parametrize(
    "name,variant,params",
    [
        ("matrixMul", "dmt", {"dim": 6}),
        ("matrixMul", "dmt_win", {"dim": 6}),
        ("reduce", "dmt", {"n": 48, "window": 8}),
    ],
    ids=["matmul-dmt", "matmul-dmt_win", "reduce-dmt"],
)
def test_window_batched_matches_event_bitwise(name, variant, params):
    prepared, compiled, launch = _prepared(name, variant, params)
    event = simulate(compiled, launch, engine="event")
    window = simulate(compiled, launch)
    assert window.engine == "window-batched"
    assert event.engine == "event"
    for array in prepared.expected:
        assert np.array_equal(event.array(array), window.array(array)), array
    prepared.check_outputs({a: window.array(a) for a in prepared.expected})
    event_counters = event.stats.as_dict()
    window_counters = window.stats.as_dict()
    for counter in event_counters:
        if counter == "engine":  # provenance differs by design
            continue
        assert event_counters[counter] == window_counters[counter], counter


def test_auto_engine_resolves_window_batched_for_feedforward_traffic():
    _, compiled, launch = _prepared("matrixMul", "dmt_win", {"dim": 4})
    assert analyze_kernel(compiled).engine == "window-batched"
    assert simulate(compiled, launch).engine == "window-batched"


def test_window_batched_rejects_interthread_recurrences(scan_launch):
    launch, _ = scan_launch  # prefix sum: cyclic elevator chain
    compiled = compile_kernel(launch.graph)
    with pytest.raises(SimulationError, match="recurrence|cycle"):
        BatchedSimulator(compiled, launch)


def test_one_batched_class_names_itself_after_the_graph():
    """The batched class runs communicating and inter-thread-free graphs
    alike and reports the analyzer's verdict name for each."""
    prepared, compiled, launch = _prepared("matrixMul", "dmt_win", {"dim": 4})
    window = BatchedSimulator(compiled, launch).run()
    assert window.engine == window.stats.extra["engine"] == "window-batched"
    prepared.check_outputs({a: window.array(a) for a in prepared.expected})

    stream_launch = prepared.launch("stream")
    stream = BatchedSimulator(compile_kernel(stream_launch.graph), stream_launch).run()
    assert stream.engine == stream.stats.extra["engine"] == "batched"
    prepared.check_outputs({a: stream.array(a) for a in prepared.expected})

    _, scan, scan_launch = _prepared("scan", "dmt", {"n": 32})
    with pytest.raises(SimulationError, match="recurrence"):
        BatchedSimulator(scan, scan_launch)


def test_auto_runs_a_capable_engine_and_batched_names_are_not_selectable(scan_launch):
    launch, data = scan_launch
    compiled = compile_kernel(launch.graph)
    with pytest.raises(SimulationError, match="'auto', 'event'"):
        simulate(compiled, launch, engine="window-batched")
    result = simulate(compiled, launch)
    assert result.engine == "event"  # recurrence: only the event engine can
    np.testing.assert_allclose(result.array("prefix"), np.cumsum(data))

    stream_prepared = get_workload("matrixMul").prepare({"dim": 4})
    stream_launch = stream_prepared.launch("stream")
    stream = simulate(compile_kernel(stream_launch.graph), stream_launch)
    assert stream.engine == "batched"  # no inter-thread traffic to window


def _check_shift(distance, const, window, n=24):
    """The first ``distance`` threads of every window get the constant; all
    others get their producer's value, on every engine."""
    compiled = compile_kernel(_shift_launch(n, distance, const, window).graph)
    tid = np.arange(n)
    heads = tid % (window or n) < distance
    expected = np.where(heads, const, _shift_input(n)[tid - distance])
    constants = distance * (n // (window or n))

    event = simulate(compiled, _shift_launch(n, distance, const, window), engine="event")
    batched = BatchedSimulator(compiled, _shift_launch(n, distance, const, window)).run()
    functional = run_functional(_shift_launch(n, distance, const, window))
    assert batched.stats.extra["engine"] == "window-batched"
    for result in (event, batched, functional):
        assert np.array_equal(result.array("out"), expected)
    for result in (event, batched):
        assert result.stats.elevator_constants == constants
        assert result.stats.elevator_retags == n - constants


def test_elevator_boundary_threads_fall_back_to_the_constant():
    _check_shift(distance=1, const=99.0, window=None)


def test_windowed_elevator_gives_every_window_head_the_constant():
    _check_shift(distance=2, const=9.0, window=8)


def test_windowed_eldst_loads_once_per_window():
    """Only window heads touch memory; every other thread is forwarded the
    head's value, which equals what a direct load would return."""
    n, window = 32, 8
    launch = _windowed_eldst_launch(n, window)
    compiled = compile_kernel(launch.graph)
    tid = np.arange(n)
    direct = launch.inputs["x"][tid - tid % window]
    for engine, resolved in (("event", "event"), ("auto", "window-batched")):
        result = simulate(compiled, _windowed_eldst_launch(n, window), engine=engine)
        assert result.engine == resolved
        assert np.array_equal(result.array("out"), direct), engine
        assert result.stats.eldst_memory_loads == n // window, engine
        assert result.stats.eldst_forwards == n - n // window, engine


def test_window_batched_shards_across_cores():
    prepared, compiled, launch = _prepared("matrixMul", "dmt_win", {"dim": 8})
    single = simulate(compiled, launch)
    assert single.engine == "window-batched"
    multi = simulate(compiled, prepared.launch("dmt_win"), cores=4)
    assert multi.cores == 4
    assert multi.engine == "window-batched"
    assert np.array_equal(single.array("c"), multi.array("c"))
    prepared.check_outputs({"c": multi.array("c")})
    single_counters = single.stats.as_dict()
    multi_counters = multi.stats.as_dict()
    for counter in OP_COUNTERS:
        assert multi_counters[counter] == single_counters[counter], counter
