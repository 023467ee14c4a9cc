"""Trace/timing provenance: stats.extra, harness phases, explore report."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.explore.analysis import render_campaign_report, timing_rows
from repro.explore.spec import CampaignSpec
from repro.harness.experiments import run_workload
from repro.kernel.builder import KernelBuilder
from repro.obs.trace import HOST_PID, ChromeTracer, tracing
from repro.sim import simulate
from repro.sim.launch import KernelLaunch
from repro.workloads.base import PreparedWorkload


def _axpy_launch(n=64):
    b = KernelBuilder("axpy_obs", n)
    b.global_array("x", n)
    b.global_array("y", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    b.store("out", tid, b.fma(b.load("x", tid), b.const(2.0), b.load("y", tid)))
    graph = b.finish()
    return KernelLaunch(graph, {"x": np.arange(n) * 0.5, "y": np.ones(n)})


def test_result_records_tracer_mode():
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    assert simulate(compiled, launch).stats.extra["trace"] == "off"
    with tracing(ChromeTracer()):
        assert simulate(compiled, launch).stats.extra["trace"] == "full"
    with tracing(ChromeTracer(limit=128)):
        assert simulate(compiled, launch).stats.extra["trace"] == "ring"


def test_multicore_trace_uses_one_process_per_core():
    launch = _axpy_launch()
    compiled = compile_kernel(launch.graph)
    tracer = ChromeTracer()
    with tracing(tracer):
        result = simulate(compiled, launch, cores=2)
    assert result.cores == 2
    op_pids = {e["pid"] for e in tracer.events() if e.get("cat") == "op" and e["pid"] != HOST_PID}
    assert op_pids == {0, 1}
    shard_spans = [e for e in tracer.events() if e.get("cat") == "host" and "shard" in e["name"]]
    assert len(shard_spans) == 2
    assert sum(s["args"]["threads"] for s in shard_spans) == launch.num_threads


def test_run_workload_records_phase_timers():
    result = run_workload("matrixMul", "dmt", params={"dim": 4})
    assert {"prepare", "build", "compile", "simulate", "analyze", "report"} <= set(result.phases)
    assert all(seconds >= 0.0 for seconds in result.phases.values())
    record = result.to_record()
    assert record["phases"] == result.phases
    # Wall-clock provenance must stay out of the deterministic counters.
    assert not any(key.startswith("phase") for key in record["counters"])
    assert "simulate" not in record["counters"]


@pytest.mark.parametrize(("variant", "method"), [("dmt", "launch"), ("fermi", "fermi_program")])
def test_the_kernel_build_is_timed_as_its_own_phase(monkeypatch, variant, method):
    """The graph (or Fermi program) build and its validation land in
    ``phases["build"]``, not outside every phase."""
    original = getattr(PreparedWorkload, method)

    def slow_build(self, *args):
        time.sleep(0.05)
        return original(self, *args)

    monkeypatch.setattr(PreparedWorkload, method, slow_build)
    phases = run_workload("matrixMul", variant, params={"dim": 4}).phases
    assert phases["build"] >= 0.05


def _record(workload, variant, duration, sim_seconds):
    return {
        "status": "ok",
        "duration_s": duration,
        "point": {"workload": workload, "variant": variant, "overrides": {}},
        "result": {
            "cycles": 100,
            "energy_pj": 1e6,
            "counters": {"engine": "batched"},
            "phases": {"simulate": sim_seconds},
        },
    }


def test_timing_rows_group_and_count_cache_hits():
    records = [
        _record("matrixMul", "stream", 2.0, 1.5),
        _record("matrixMul", "stream", 4.0, 0.5),
        _record("reduce", "dmt", 1.0, 0.25),
    ]
    rows = timing_rows(records, cached=[True, False, False])
    assert rows == [
        ["matrixMul", "stream", 2, 1, 1, "6.00", "1.000"],
        ["reduce", "dmt", 1, 0, 1, "1.00", "0.250"],
    ]
    # Records straight out of the cache are all hits by definition.
    all_hits = timing_rows(records)
    assert [row[3] for row in all_hits] == [2, 1]


def test_campaign_report_includes_provenance_section():
    spec = CampaignSpec(name="prov", workloads=("matrixMul",), variants=("stream",))
    records = [_record("matrixMul", "stream", 2.0, 1.5)]
    report = render_campaign_report(spec, records, cached=[False])
    assert "Point wall time and cache provenance" in report
    assert "Mean sim [s]" in report
