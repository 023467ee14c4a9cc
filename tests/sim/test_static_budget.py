"""Work budget of the batched timing sweep: no queue for static nodes.

A node fed only by sources, or by pure nodes that are themselves fed
only by sources, fires at its thread's injection cycle plus a
per-kernel constant (``sim/batched.py::_static_walk``).  The timing
sweep reads that constant: such a node makes no call to the issue-port
queue (``BatchedSimulator._issue``) and, on a wave that tracks the
event engine's firing order (graphs with barriers or scratch nodes),
none to ``_FireOrder.fire_node``.  So each of the two runs exactly once
per timed node outside the static sub-DAG, counted here from the
kernel's index alone.  At ``DEFAULT_SUITE_PARAMS`` that is 13 ``_issue``
calls on matrixMul ``stream`` and ``dmt`` and 41 ``fire_node`` and
``_issue`` calls on matrixMul ``mt``; the per-node sweep it replaced
made 62, 64 and 68.

Both counts are per graph node, never per thread: on every batched
registry cell whose graph does not grow with the problem size, a launch
with four times the threads makes the same calls.
"""

from __future__ import annotations

import pytest

from repro.compiler.pipeline import compile_kernel
from repro.graph.opcodes import SOURCE_OPCODES, Opcode
from repro.graph.semantics import PURE_OPCODES
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator, _FireOrder
from repro.workloads.registry import get_workload, registry_kernels

#: The problem-size parameter that scales each workload's thread count
#: without changing its graph, and the factor that gives 4x the threads.
#: scan, matrixMul and lud unroll loops over their size and are left out.
THREAD_SCALE = {
    "convolution": ("n", 4),
    "reduce": ("n", 4),
    "srad": ("dim", 2),
    "bpnn": ("n_out", 4),
    "hotspot": ("dim", 2),
    "pathfinder": ("cols", 4),
    "spmv": ("rows", 4),
}
#: Cells whose compiled graph still grows: their elevator distance is a
#: row length, so the compiler buffers more of their tokens.
GROWING = {("srad", "dmt"), ("bpnn", "dmt"), ("hotspot", "dmt")}


def _outside_static(index) -> int:
    """Timed (non-source) nodes with an operand from outside the static
    sub-DAG: sources, and pure nodes all of whose operands are static."""
    static: set[int] = set()
    outside = 0
    for node in index.full_order:
        nid = node.node_id
        if node.opcode in SOURCE_OPCODES:
            static.add(nid)
        elif all(edge.src in static for edge in index.inputs[nid]):
            if node.opcode in PURE_OPCODES:
                static.add(nid)
        else:
            outside += 1
    return outside


def _tracks_order(index) -> bool:
    return bool(
        index.nodes_with_opcode(Opcode.BARRIER, Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE)
    )


def _counted_simulate(monkeypatch, compiled, launch) -> dict[str, int]:
    calls = {"_issue": 0, "fire_node": 0}
    for cls, name in ((BatchedSimulator, "_issue"), (_FireOrder, "fire_node")):
        original = getattr(cls, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    result = simulate(compiled, launch)
    assert result.engine in ("batched", "window-batched")
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "workload,variant",
    [("matrixMul", "stream"), ("matrixMul", "dmt"), ("matrixMul", "mt"), ("reduce", "mt")],
)
def test_static_nodes_make_no_queue_or_order_calls(monkeypatch, workload, variant):
    wl = get_workload(workload)
    prepared = wl.prepare(wl.params_with_defaults(DEFAULT_SUITE_PARAMS[workload]))
    compiled = compile_kernel(prepared.launch(variant).graph)
    calls = _counted_simulate(monkeypatch, compiled, prepared.launch(variant))

    index = compiled.index
    outside = _outside_static(index)
    timed = sum(node.opcode not in SOURCE_OPCODES for node in index.nodes)
    assert outside < timed
    assert calls["_issue"] == outside
    assert calls["fire_node"] == (outside if _tracks_order(index) else 0)


BATCHED_CELLS = [
    pytest.param(workload, variant, id=f"{workload.name}-{variant}")
    for workload, variant in registry_kernels()
    if workload.name in THREAD_SCALE and (workload.name, variant) not in GROWING
]


@pytest.mark.parametrize("workload,variant", BATCHED_CELLS)
def test_calls_do_not_grow_with_the_thread_count(monkeypatch, workload, variant):
    params = workload.params_with_defaults(DEFAULT_SUITE_PARAMS.get(workload.name))
    name, factor = THREAD_SCALE[workload.name]
    counts = []
    for size in (params, {**params, name: params[name] * factor}):
        prepared = workload.prepare(size)
        compiled = compile_kernel(prepared.launch(variant).graph)
        counts.append(
            (
                compiled.graph.metadata["num_threads"],
                len(compiled.index.nodes),
                _counted_simulate(monkeypatch, compiled, prepared.launch(variant)),
            )
        )
    (small_threads, small_nodes, small), (large_threads, large_nodes, large) = counts
    assert large_threads == 4 * small_threads
    assert large_nodes == small_nodes
    assert large == small
