"""Trace <-> counter consistency: traced events must sum to the engines' stats.

One test family per engine: the event engine emits one op event per
firing, the batched engines one event per node per wave carrying
``args.count`` — either way the per-class sums must equal the
``ExecutionStats`` operation counters and the memory-event counts must
equal the L1 access totals, or the timeline lies about the run.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.compiler.pipeline import compile_kernel
from repro.obs.trace import HOST_PID, ChromeTracer, tracing
from repro.sim import simulate
from repro.workloads.registry import get_workload

#: UnitClass.name -> the ExecutionStats counter it must sum to.
CLASS_COUNTERS = {
    "ALU": "alu_ops",
    "FPU": "fpu_ops",
    "SPECIAL": "special_ops",
    "CONTROL": "control_ops",
    "SPLIT_JOIN": "split_join_ops",
}


def _traced_run(
    variant: str, engine: str = "auto", dim: int = 8, workload: str = "matrixMul"
):
    params = {"dim": dim} if workload == "matrixMul" else None
    prepared = get_workload(workload).prepare(params)
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)
    tracer = ChromeTracer()
    with tracing(tracer):
        result = simulate(compiled, launch, engine=engine)
    return tracer, result


def _class_sums(events) -> dict[str, int]:
    sums: dict[str, int] = defaultdict(int)
    for event in events:
        if event.get("cat") == "op" and event["ph"] == "X" and event["pid"] != HOST_PID:
            args = event.get("args") or {}
            sums[args.get("cls", "?")] += int(args.get("count", 1))
    return sums


def _mem_event_count(events) -> int:
    return sum(
        int((event.get("args") or {}).get("count", 1))
        for event in events
        if event.get("cat") == "mem" and event["ph"] == "X" and event["pid"] != HOST_PID
    )


def _l1_accesses(counters) -> int:
    return sum(
        int(counters[key])
        for key in ("l1_read_hits", "l1_read_misses", "l1_write_hits", "l1_write_misses")
    )


@pytest.mark.parametrize(
    ("variant", "engine", "resolved"),
    [
        pytest.param("stream", "auto", "batched", id="batched"),
        pytest.param("dmt", "auto", "window-batched", id="window-batched"),
        pytest.param("stream", "event", "event", id="event"),
        pytest.param("dmt", "event", "event", id="event-interthread"),
    ],
)
def test_op_events_sum_to_class_counters(variant, engine, resolved):
    tracer, result = _traced_run(variant, engine)
    assert result.engine == resolved
    events = tracer.events()
    sums = _class_sums(events)
    counters = result.counters()
    for cls, counter in CLASS_COUNTERS.items():
        assert sums.get(cls, 0) == counters[counter], (
            f"{variant}/{resolved}: traced {cls} events sum to {sums.get(cls, 0)}, "
            f"stats say {counter}={counters[counter]}"
        )
    # And the timeline saw the memory system exactly as often as the
    # hierarchy counted it.
    assert _mem_event_count(events) == _l1_accesses(counters)


def test_window_batched_traces_interthread_traffic():
    tracer, result = _traced_run("dmt")
    assert result.engine == "window-batched"
    interthread = [e for e in tracer.events() if e.get("cat") == "interthread"]
    assert interthread, "window-batched run traced no inter-thread events"
    forwards = sum(
        int(e["args"].get("forwards", 0)) for e in interthread if "forward" in e["name"]
    )
    assert forwards == result.counters()["eldst_forwards"]


def test_event_engine_traces_injection_and_tokens():
    tracer, result = _traced_run("stream", engine="event", dim=4)
    assert result.engine == "event"
    instants = [e for e in tracer.events() if e["ph"] == "i"]
    cats = {e["cat"] for e in instants}
    assert "inject" in cats
    assert "token" in cats


def test_untraced_run_matches_traced_counters():
    _, traced = _traced_run("stream")
    prepared = get_workload("matrixMul").prepare({"dim": 8})
    launch = prepared.launch("stream")
    untraced = simulate(compile_kernel(launch.graph), launch)
    traced_counters = dict(traced.counters())
    untraced_counters = dict(untraced.counters())
    # Tracing must not perturb the simulation: everything but the trace
    # provenance string is identical.
    assert traced_counters.pop("trace") == "full"
    assert untraced_counters.pop("trace") == "off"
    assert traced_counters == untraced_counters


@pytest.mark.parametrize("engine", ["auto", "event"])
def test_scratch_events_sum_to_scratch_counters(engine):
    """The mt timeline shows every scratchpad access exactly once: one
    event per access on the event engine, one count-weighted event per
    scratch node on the batched engine."""
    tracer, result = _traced_run("mt", engine)
    assert result.engine == ("window-batched" if engine == "auto" else "event")
    scratch = sum(
        int((event.get("args") or {}).get("count", 1))
        for event in tracer.events()
        if event.get("cat") == "scratch" and event["ph"] == "X" and event["pid"] != HOST_PID
    )
    counters = result.counters()
    assert scratch == counters["scratch_loads"] + counters["scratch_stores"] > 0


@pytest.mark.parametrize(
    ("workload", "variant"),
    [("matrixMul", "stream"), ("matrixMul", "dmt"), ("spmv", "stream")],
)
def test_tag_walk_spans_cover_every_l1_access(workload, variant):
    """Every L1 access the batched engines classify is walked inside a
    host ``tag walk`` span: loads, stores and the per-node walks of a
    graph whose load indices depend on memory (spmv, RA042)."""
    tracer, result = _traced_run(variant, workload=workload)
    assert result.engine in ("batched", "window-batched")
    walked = sum(
        int(event["args"]["accesses"])
        for event in tracer.events()
        if event["pid"] == HOST_PID and event["name"] == "tag walk"
    )
    assert walked == _l1_accesses(result.counters()) > 0
