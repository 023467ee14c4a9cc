"""Differential engine matrix: every registry workload x variant x engine.

Every (workload, variant) kernel of the registry is classified by the
engines able to execute it — ``batched`` for inter-thread-free graphs,
``window-batched`` for feed-forward communicating graphs, event-only for
everything else — and that classification is pinned against an explicit
expected matrix, so a structural regression in any kernel (an elevator
losing its window, a stream variant growing a barrier) fails loudly.

Every batched-capable cell then runs on both the event engine and its
batched engine at two problem sizes; outputs must be bit-identical and
every operation counter equal.  Event-only cells are pinned the other
way: ``engine="auto"`` must run them on the event engine, with the
analyzer's reason in ``RA045``.  The small sizes run in the fast lane;
the full sweep at the larger thread count is marked ``slow`` (tier-1
and the CI ``tier1`` job include it, the per-version fast test job
skips it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analyze import analyze_kernel
from repro.compiler.pipeline import compile_kernel
from repro.graph.index import KernelIndex
from repro.graph.interthread import window_batch_problem
from repro.graph.opcodes import Opcode
from repro.sim import simulate
from repro.workloads.registry import (
    all_workloads,
    available_variants,
    registry_kernel_count,
)

#: Two problem sizes (= two thread counts) per registry workload.
SMALL_PARAMS = {
    "scan": {"n": 32},
    "matrixMul": {"dim": 6},
    "convolution": {"n": 48},
    "reduce": {"n": 64, "window": 8},
    "lud": {"dim": 6},
    "srad": {"dim": 6},
    "bpnn": {"n_in": 8, "n_out": 8},
    "hotspot": {"dim": 6},
    "pathfinder": {"cols": 32, "rows": 4},
    "spmv": {"rows": 8, "max_nnz": 4},
}
LARGE_PARAMS = {
    "scan": {"n": 128},
    "matrixMul": {"dim": 16},
    "convolution": {"n": 512},
    "reduce": {"n": 512, "window": 32},
    "lud": {"dim": 12},
    "srad": {"dim": 16},
    "bpnn": {"n_in": 16, "n_out": 16},
    "hotspot": {"dim": 16},
    "pathfinder": {"cols": 128, "rows": 5},
    "spmv": {"rows": 64, "max_nnz": 8},
}

#: The full expected engine matrix, spelled out cell by cell.  "event-only"
#: marks kernels no batched engine can execute (scan's cyclic recurrence;
#: the scratchpad mt kernels batch since their scratch levels are
#: barrier-separated).  Keep this in Table 3 + variant order.
EXPECTED_MATRIX = {
    ("scan", "mt"): "window-batched",
    ("scan", "dmt"): "event-only",
    ("scan", "stream"): "batched",
    ("matrixMul", "mt"): "window-batched",
    ("matrixMul", "dmt"): "window-batched",
    ("matrixMul", "dmt_win"): "window-batched",
    ("matrixMul", "stream"): "batched",
    ("convolution", "mt"): "window-batched",
    ("convolution", "dmt"): "window-batched",
    ("convolution", "dmt_win"): "window-batched",
    ("convolution", "stream"): "batched",
    ("reduce", "mt"): "window-batched",
    ("reduce", "dmt"): "window-batched",
    ("reduce", "dmt_win"): "window-batched",
    ("reduce", "stream"): "batched",
    ("lud", "mt"): "window-batched",
    ("lud", "dmt"): "window-batched",
    ("lud", "dmt_win"): "window-batched",
    ("lud", "stream"): "batched",
    ("srad", "mt"): "window-batched",
    ("srad", "dmt"): "window-batched",
    ("srad", "dmt_win"): "window-batched",
    ("srad", "stream"): "batched",
    ("bpnn", "mt"): "window-batched",
    ("bpnn", "dmt"): "window-batched",
    ("bpnn", "stream"): "batched",
    ("hotspot", "mt"): "window-batched",
    ("hotspot", "dmt"): "window-batched",
    ("hotspot", "dmt_win"): "window-batched",
    ("hotspot", "stream"): "batched",
    ("pathfinder", "mt"): "window-batched",
    ("pathfinder", "dmt"): "window-batched",
    ("pathfinder", "dmt_win"): "window-batched",
    ("pathfinder", "stream"): "batched",
    ("spmv", "mt"): "window-batched",
    ("spmv", "dmt"): "window-batched",
    ("spmv", "dmt_win"): "window-batched",
    ("spmv", "stream"): "batched",
}


def _classify(graph) -> str:
    """The batched engine able to run ``graph``, or "event-only"."""
    if not graph.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST, Opcode.BARRIER):
        return "batched"
    if window_batch_problem(KernelIndex.of(graph)) is None:
        return "window-batched"
    return "event-only"


def _registry_matrix(params_by_workload):
    """(name, variant, params) -> engine class for the whole registry."""
    matrix = {}
    for workload in all_workloads():
        params = workload.params_with_defaults(params_by_workload[workload.name])
        for variant in available_variants(workload):
            prepared = workload.prepare(params)
            graph = prepared.launch(variant).graph
            matrix[(workload.name, variant, tuple(sorted(params.items())))] = _classify(
                graph
            )
    return matrix


SMALL_MATRIX = _registry_matrix(SMALL_PARAMS)
LARGE_MATRIX = _registry_matrix(LARGE_PARAMS)

SMALL_CASES = [
    (name, variant, dict(params), engine)
    for (name, variant, params), engine in SMALL_MATRIX.items()
    if engine != "event-only"
]
LARGE_CASES = [
    (name, variant, dict(params), engine)
    for (name, variant, params), engine in LARGE_MATRIX.items()
    if engine != "event-only"
]
EVENT_ONLY_CASES = [
    (name, variant, dict(params))
    for (name, variant, params), engine in SMALL_MATRIX.items()
    if engine == "event-only"
]


def test_sweep_covers_the_whole_registry():
    """Full-registry coverage: every workload declares a stream variant,
    every workload has a params entry at both sizes, and the discovered
    matrix pins every declared kernel cell against EXPECTED_MATRIX —
    including the event-only cells, so scan's cyclic recurrence is
    *asserted* event-only rather than silently skipped."""
    names = {w.name for w in all_workloads()}
    assert all("stream" in available_variants(w) for w in all_workloads())
    assert set(SMALL_PARAMS) == names
    assert set(LARGE_PARAMS) == names
    discovered = {(n, v): e for (n, v, _), e in SMALL_MATRIX.items()}
    assert discovered == EXPECTED_MATRIX
    assert {(n, v): e for (n, v, _), e in LARGE_MATRIX.items()} == EXPECTED_MATRIX
    assert len(EXPECTED_MATRIX) == registry_kernel_count()
    # The scan satellite pins explicitly: cyclic recurrence, event-only.
    assert EXPECTED_MATRIX[("scan", "dmt")] == "event-only"


def _assert_engines_equivalent(name, variant, params, engine):
    workload = next(w for w in all_workloads() if w.name == name)
    prepared = workload.prepare(params)
    compiled = compile_kernel(prepared.launch(variant).graph)
    event = simulate(compiled, prepared.launch(variant), engine="event")
    batched = simulate(compiled, prepared.launch(variant))
    assert event.engine == "event"
    assert batched.engine == engine
    for array_name in prepared.expected:
        assert np.array_equal(event.array(array_name), batched.array(array_name)), array_name
    prepared.check_outputs({n: batched.array(n) for n in prepared.expected})
    for output_name, values in event.outputs.items():
        assert batched.outputs[output_name] == values, output_name
    event_counters = event.stats.as_dict()
    batched_counters = batched.stats.as_dict()
    # Provenance differs by design; under RA042 (per-node load replay)
    # barrier waits are timing estimates like the cycles themselves.
    skip = {"cycles", "engine"}
    if not analyze_kernel(compiled).order_stable:
        skip.add("barrier_wait_cycles")
    for counter, value in event_counters.items():
        if counter in skip:
            continue
        assert batched_counters[counter] == value, counter


@pytest.mark.parametrize(
    "name,variant,params,engine",
    SMALL_CASES,
    ids=[f"{n}-{v}-small" for n, v, _, _ in SMALL_CASES],
)
def test_engines_bit_identical_small(name, variant, params, engine):
    _assert_engines_equivalent(name, variant, params, engine)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,variant,params,engine",
    LARGE_CASES,
    ids=[f"{n}-{v}-large" for n, v, _, _ in LARGE_CASES],
)
def test_engines_bit_identical_large(name, variant, params, engine):
    _assert_engines_equivalent(name, variant, params, engine)


@pytest.mark.parametrize(
    "name,variant,params",
    EVENT_ONLY_CASES,
    ids=[f"{n}-{v}" for n, v, _ in EVENT_ONLY_CASES],
)
def test_event_only_cells_degrade_observably(name, variant, params):
    """``auto`` on an event-only kernel runs the event engine, and the
    analyzer says why the batched path is out of reach (pinned for scan)."""
    workload = next(w for w in all_workloads() if w.name == name)
    prepared = workload.prepare(params)
    compiled = compile_kernel(prepared.launch(variant).graph)
    run = simulate(compiled, prepared.launch(variant))
    assert run.engine == "event"
    assert run.stats.extra["engine"] == "event"
    assert analyze_kernel(compiled)["RA045"].data["problem"]
    prepared.check_outputs({n: run.array(n) for n in prepared.expected})
