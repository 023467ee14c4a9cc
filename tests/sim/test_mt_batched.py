"""The scratchpad (``mt``) cells on the batched engine equal the event engine.

Every ``mt`` kernel of the registry runs on both engines at
``DEFAULT_SUITE_PARAMS`` and ``BENCHMARK_SUITE_PARAMS`` (spmv, outside
the paper suite, at its defaults).  On the order-stable cells the
batched run's cycles and *every* counter — ``scratchpad_bank_conflicts``
and ``barrier_wait_cycles`` included — equal the event engine's, and its
scratch replay, served again through ``Scratchpad.access`` one access at
a time, completes on the same cycles.  spmv ``mt`` gathers through a
loaded index (RA042): its op counters are equal and its cycles within
the fidelity gate's 10% bar.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import run_against_hierarchy
from repro.analyze import analyze_kernel
from repro.compiler.pipeline import compile_kernel
from repro.harness.figures import BENCHMARK_SUITE_PARAMS, DEFAULT_SUITE_PARAMS
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator
from repro.workloads.registry import all_workloads

#: Cycle-error bar of ``benchmarks/bench_batched_fidelity.py``.
MAX_CYCLE_ERROR = 0.10

CASES = [
    pytest.param(workload, params, id=f"{workload.name}-{label}")
    for workload in all_workloads()
    for label, params in (("default", DEFAULT_SUITE_PARAMS), ("benchmark", BENCHMARK_SUITE_PARAMS))
    if workload.name in params or label == "default"
]


@pytest.mark.parametrize("workload,params", CASES)
def test_mt_cell_batched_equals_event(workload, params):
    prepared = workload.prepare(workload.params_with_defaults(params.get(workload.name)))
    compiled = compile_kernel(prepared.launch("mt").graph)
    event = simulate(compiled, prepared.launch("mt"), engine="event")
    batched = simulate(compiled, prepared.launch("mt"))
    assert batched.engine == "window-batched"
    for name in prepared.expected:
        assert np.array_equal(batched.array(name), event.array(name)), name
    prepared.check_outputs({name: batched.array(name) for name in prepared.expected})

    if analyze_kernel(compiled).order_stable:
        assert batched.cycles == event.cycles
        expected, measured, timing = event.counters(), batched.counters(), set()
    else:
        # RA042: the op counters are exact, cycles an estimate.
        assert abs(batched.cycles - event.cycles) <= MAX_CYCLE_ERROR * event.cycles
        expected, measured = event.stats.as_dict(), batched.stats.as_dict()
        timing = {"cycles", "barrier_wait_cycles"}
    for key, value in expected.items():
        if key not in timing | {"engine"}:
            assert measured[key] == value, key

    replay = run_against_hierarchy(BatchedSimulator(compiled, prepared.launch("mt")))
    assert replay.scratch_replayed == event.stats.scratch_loads + event.stats.scratch_stores
    assert not replay.scratch_mismatches, "\n".join(replay.scratch_mismatches)
    assert not replay.mismatches, "\n".join(replay.mismatches)
