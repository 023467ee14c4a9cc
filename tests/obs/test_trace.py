"""Unit tests for the Chrome trace-event tracer and the ambient seam."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import (
    HOST_PID,
    ChromeTracer,
    active_mode,
    active_tracer,
    tracing,
)


def test_export_structure_and_metadata():
    tracer = ChromeTracer()
    tracer.set_process_name(0, "core 0 (test)")
    tracer.set_lane_name(0, 7, "PE 7 (test)")
    tracer.event("fma#1", "op", ts=10.0, dur=4.0, pid=0, tid=7, args={"count": 3})
    tracer.instant("inject", "inject", ts=0.0, pid=0, tid=7)
    export = tracer.export()

    assert set(export) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert export["displayTimeUnit"] == "ms"
    assert export["otherData"]["mode"] == "full"
    assert export["otherData"]["dropped"] == 0

    events = export["traceEvents"]
    process_meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    lane_meta = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
    assert any(e["args"]["name"] == "core 0 (test)" for e in process_meta)
    assert any(e["args"]["name"] == "PE 7 (test)" for e in lane_meta)

    (duration,) = [e for e in events if e["ph"] == "X"]
    assert duration["name"] == "fma#1"
    assert duration["dur"] == 4.0
    assert duration["args"] == {"count": 3}
    (instant,) = [e for e in events if e["ph"] == "i"]
    assert instant["s"] == "t"
    assert "dur" not in instant

    # The op duration event must yield a derived occupancy counter track
    # that rises to the event's count and falls back to zero.
    counters = [e for e in events if e["ph"] == "C" and e["name"] == "occupancy"]
    assert [c["args"]["occupancy"] for c in counters] == [3.0, 0.0]

    # The whole export round-trips through JSON (what export_file writes).
    assert json.loads(json.dumps(export)) == export


def test_export_file_is_loadable(tmp_path):
    tracer = ChromeTracer()
    tracer.event("op#0", "op", ts=0.0, dur=1.0)
    path = tracer.export_file(str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert loaded["otherData"]["events"] == 1


def test_ring_buffer_keeps_newest_and_counts_dropped():
    tracer = ChromeTracer(limit=4)
    assert tracer.mode == "ring"
    for i in range(10):
        tracer.event(f"op#{i}", "op", ts=float(i))
    assert len(tracer) == 4
    assert tracer.dropped == 6
    names = [e["name"] for e in tracer.events()]
    assert names == ["op#6", "op#7", "op#8", "op#9"]
    assert tracer.export()["otherData"]["dropped"] == 6


def test_ring_buffer_rejects_non_positive_limit():
    with pytest.raises(ValueError, match="limit"):
        ChromeTracer(limit=0)


def test_wall_span_lands_on_host_pid():
    """A wall-clock span recorded through ``wall_event`` sits on the host lane."""
    tracer = ChromeTracer()
    begin = tracer.clock()
    tracer.wall_event("residue walk", begin, args={"accesses": 0})
    (event,) = tracer.events()
    assert event["name"] == "residue walk"
    assert event["pid"] == HOST_PID and event["cat"] == "host"
    assert event["dur"] >= 0.0


def test_tracing_nests_and_restores():
    assert active_tracer() is None
    assert active_mode() == "off"
    outer, inner = ChromeTracer(), ChromeTracer(limit=8)
    with tracing(outer):
        assert active_tracer() is outer
        assert active_mode() == "full"
        with tracing(inner):
            assert active_tracer() is inner
            assert active_mode() == "ring"
        with tracing(None):  # the overhead benchmark's explicit baseline
            assert active_tracer() is None
            assert active_mode() == "off"
        assert active_tracer() is outer
    assert active_tracer() is None


def test_tracing_restores_on_exception():
    tracer = ChromeTracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracing(tracer):
            raise RuntimeError("boom")
    assert active_tracer() is None
