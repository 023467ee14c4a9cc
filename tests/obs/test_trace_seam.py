"""The tracing-off seam, counted exactly.

With no tracer installed, every engine hook binds ``active_tracer()`` once
and guards each event behind ``if self._trace is not None``, so an
untraced ``simulate`` calls into ``repro/obs/trace.py`` a fixed number of
times whatever the thread count: the engine's constructor binds the
tracer, and ``simulate`` records ``active_mode()``.  A hook that escapes
its guard, or a per-node or per-thread call into the tracer module, adds
calls at once.  These pins count the calls under ``sys.setprofile`` (a
host-independent check; ``benchmarks/bench_obs_overhead.py`` is the
end-to-end wall-clock measurement).

Counts, the same at ``dim`` 16 and 32: 4 on ``auto`` (``active_tracer``
three times, ``active_mode`` once) for both batched families, 2 on the
event engine.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.obs.trace as trace_module
from repro import compile_kernel, get_workload, simulate

TRACE_FILE = trace_module.__file__


def _calls_into_trace(variant: str, dim: int, engine: str) -> tuple[str, Counter]:
    launch = get_workload("matrixMul").prepare({"dim": dim}, seed=0).launch(variant)
    compiled = compile_kernel(launch.graph)
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == TRACE_FILE:
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = simulate(compiled, launch, engine=engine)
    finally:
        sys.setprofile(previous)
    return result.engine, calls


@pytest.mark.parametrize("dim", [16, 32])
@pytest.mark.parametrize(
    "variant,engine,resolved,pinned",
    [
        ("dmt", "auto", "window-batched", 4),
        ("stream", "auto", "batched", 4),
        ("dmt", "event", "event", 2),
    ],
)
def test_untraced_simulate_calls_into_the_tracer_a_fixed_number_of_times(
    variant, engine, resolved, pinned, dim
):
    assert trace_module.active_tracer() is None
    ran, calls = _calls_into_trace(variant, dim, engine)
    assert ran == resolved
    assert sum(calls.values()) == pinned, dict(calls)
