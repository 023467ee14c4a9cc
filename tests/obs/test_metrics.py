"""Unit tests for the metrics registry and phase timers."""

from __future__ import annotations

import pytest

from repro.obs.metrics import REGISTRY, MetricsRegistry, timer


def test_counters():
    registry = MetricsRegistry()
    registry.inc("runs")
    registry.inc("runs", 2)
    assert registry.snapshot() == {"counter.runs": 3}


def test_histogram_observation_statistics():
    registry = MetricsRegistry()
    for value in (1.0, 2.0, 3.0):
        registry.observe("wave_threads", value)
    snapshot = registry.snapshot()
    assert snapshot["wave_threads.count"] == 3
    assert snapshot["wave_threads.total"] == 6.0
    assert snapshot["wave_threads.min"] == 1.0
    assert snapshot["wave_threads.max"] == 3.0
    assert snapshot["wave_threads.mean"] == pytest.approx(2.0)


def test_timer_records_elapsed_seconds():
    registry = MetricsRegistry()
    with registry.timer("compile") as span:
        pass
    assert span.name == "compile"
    assert span.seconds >= 0.0
    snapshot = registry.snapshot()
    assert snapshot["timer.compile.count"] == 1
    assert snapshot["timer.compile.total"] == pytest.approx(span.seconds)


def test_timer_records_on_exception():
    registry = MetricsRegistry()
    with pytest.raises(RuntimeError, match="boom"):
        with registry.timer("simulate") as span:
            raise RuntimeError("boom")
    assert span.seconds >= 0.0
    assert registry.snapshot()["timer.simulate.count"] == 1


def test_reset_clears_everything():
    registry = MetricsRegistry()
    registry.inc("runs")
    registry.observe("h", 1.0)
    registry.reset()
    assert registry.snapshot() == {}


def test_module_shorthand_feeds_global_registry():
    REGISTRY.reset()
    try:
        with timer("phase") as span:
            pass
        assert span.seconds >= 0.0
        assert REGISTRY.snapshot()["timer.phase.count"] == 1
    finally:
        REGISTRY.reset()
