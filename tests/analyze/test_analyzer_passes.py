"""Pathological kernels hit exact RA0xx codes; clean kernels stay clean."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analyze import analyze_kernel
from repro.analyze.passes import scratch_race_diagnostics
from repro.compiler.pipeline import compile_kernel
from repro.config.system import TokenBufferConfig, default_system_config
from repro.graph.index import KernelIndex
from repro.kernel.builder import KernelBuilder


def _deadlock_graph(n=4):
    """Opposite-direction elevators in one cycle: the canonical deadlock."""
    b = KernelBuilder("deadlock", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    fwd = b.from_thread_or_const("y", +1, 0.0)
    bwd = b.from_thread_or_const("y", -1, 0.0)
    val = fwd + bwd
    b.tag_value("y", val)
    b.store("out", tid, val)
    return b.finish()


def _recurrence_graph(n=8, name="scanlike"):
    """A live one-directional recurrence (prefix-sum shape)."""
    b = KernelBuilder(name, n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    prev = b.from_thread_or_const("acc", -1, 0.0)
    val = prev + tid
    b.tag_value("acc", val)
    b.store("out", tid, val)
    return b.finish()


def test_opposing_elevators_flag_ra010():
    result = analyze_kernel(compile_kernel(_deadlock_graph()))
    assert "RA010" in result.codes()
    assert result.deadlock
    (diag,) = [d for d in result.diagnostics if d.code == "RA010"]
    assert diag.nodes  # provenance points at the cycle's members


def test_compile_warns_on_deadlock_kernel():
    with pytest.warns(UserWarning, match="RA010"):
        compile_kernel(_deadlock_graph())


def test_one_directional_recurrence_is_not_deadlock():
    result = analyze_kernel(compile_kernel(_recurrence_graph()))
    assert not result.deadlock
    assert "RA010" not in result.codes()
    assert "RA011" not in result.codes()


def test_capacity_one_token_buffer_flags_ra012():
    config = replace(
        default_system_config(), token_buffer=TokenBufferConfig(entries=1)
    )
    result = analyze_kernel(compile_kernel(_recurrence_graph(name="tiny"), config))
    assert "RA012" in result.codes()
    diag = result["RA012"]
    assert diag.data["demand"] == 2
    assert diag.data["entries"] == 1
    assert not result.ok  # RA012 is a warning, so the kernel is not clean
    assert not result.deadlock  # ...but it is not a predicted deadlock


def test_self_loop_elevator_is_a_recurrence():
    """A one-node SCC counts as a cycle only through its self-loop edge."""
    n = 4
    b = KernelBuilder("self_loop", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    prev = b.from_thread_or_const("v", -1, 0.0)
    b.tag_value("v", prev)
    b.store("out", tid, prev)
    config = replace(default_system_config(), token_buffer=TokenBufferConfig(entries=1))
    result = analyze_kernel(compile_kernel(b.finish(), config))
    assert result["RA012"].data["demand"] == 2
    assert not result.deadlock


def test_barrier_in_cycle_flags_ra011():
    n = 4
    b = KernelBuilder("barrier_cycle", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    prev = b.from_thread_or_const("v", -1, 0.0)
    gated = b.barrier(prev + 1.0)
    b.tag_value("v", gated)
    b.store("out", tid, gated)
    result = analyze_kernel(compile_kernel(b.finish()))
    assert "RA011" in result.codes()
    assert result.deadlock


def test_unordered_scratch_writes_flag_ra020():
    n = 8
    b = KernelBuilder("ww_race", n)
    b.scratch_array("s", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    b.scratch_store("s", tid, tid)
    b.scratch_store("s", tid + 1.0, tid)
    b.store("out", tid, tid)
    result = analyze_kernel(compile_kernel(b.finish()))
    assert "RA020" in result.codes()
    assert result["RA020"].data["array"] == "s"


def test_unordered_scratch_write_read_flags_ra021():
    n = 8
    b = KernelBuilder("wr_race", n)
    b.scratch_array("s", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    b.scratch_store("s", tid, tid)
    b.store("out", tid, b.scratch_load("s", tid))  # no order token, no barrier
    result = analyze_kernel(compile_kernel(b.finish()))
    assert "RA021" in result.codes()


def test_barrier_ordered_scratch_traffic_is_clean():
    n = 8
    b = KernelBuilder("ordered", n)
    b.scratch_array("s", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    ack = b.scratch_store("s", tid, tid)
    bar = b.barrier(ack)
    b.store("out", tid, b.scratch_load("s", tid, order=bar))
    result = analyze_kernel(compile_kernel(b.finish()))
    assert "RA020" not in result.codes()
    assert "RA021" not in result.codes()


def _staged_chain(stages: int):
    """``stages`` store -> barrier -> load stages, each through its own array.

    Every load feeds the next stage's store, so every scratch access
    reaches every later one.  One array per stage keeps the number of
    same-array pairs the pass must judge linear in ``stages``, so the only
    super-linear cost left to catch is the reachability walk.
    """
    n = 8
    b = KernelBuilder(f"chain{stages}", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    value = tid
    for stage in range(stages):
        b.scratch_array(f"s{stage}", n)
        bar = b.barrier(b.scratch_store(f"s{stage}", tid, value))
        value = b.scratch_load(f"s{stage}", tid, order=bar)
    b.store("out", tid, value)
    return b.finish()


def _race_pass(graph):
    """The scratch-race pass over a fresh index, its component walk included."""
    return scratch_race_diagnostics(KernelIndex.of(graph))


def _traced_lines(fn, *args) -> int:
    """Lines of ``repro`` code executed by ``fn(*args)`` (a host-independent cost)."""
    root = str(Path(scratch_race_diagnostics.__code__.co_filename).parents[1])
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def test_scratch_race_pass_is_linear_in_a_staged_chain():
    """Doubling the chain at most about doubles the pass's work.

    A walk from every scratch node visits the rest of the chain once per
    node, which quadruples the count per doubling.
    """
    cost = [_traced_lines(_race_pass, _staged_chain(s)) for s in (16, 32, 64)]
    assert not _race_pass(_staged_chain(4))
    assert cost[1] <= 2.1 * cost[0] and cost[2] <= 2.1 * cost[1], cost


def test_unbounded_elevator_flags_ra030():
    result = analyze_kernel(compile_kernel(_recurrence_graph()))
    assert result.shard.fallback_code == "RA030"
    diag = result["RA030"]
    assert "no bounded transmission window" in diag.message
    assert diag.nodes  # names the unbounded elevator


def test_analysis_is_cached_and_invalidated_by_config():
    compiled = compile_kernel(_recurrence_graph())
    first = analyze_kernel(compiled)
    assert analyze_kernel(compiled) is first  # cached by signature

    other = compile_kernel(
        _recurrence_graph(),
        replace(default_system_config(), token_buffer=TokenBufferConfig(entries=1)),
    )
    assert analyze_kernel(other) is not first
    assert "RA012" in analyze_kernel(other).codes()
