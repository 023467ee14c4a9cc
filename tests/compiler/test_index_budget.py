"""Work budget of the graph walks after compile: each consumer reads the index.

``compile_kernel`` builds one :class:`~repro.graph.index.KernelIndex`
when the last pass has run, and placement, routing, the analyzer and
both engines read their adjacency from it.  So from the end of the
last pass to the end of ``simulate`` the mutable graph is walked only by
the index build.  ``sys.setprofile`` counts the calls into the graph's
adjacency walkers over that span.  The last pass, replicate, writes
only metadata, so no structure check runs in the window: each of the
three kernels reads ``edges()`` once and nothing else.  The bound,
``len(graph) + 4``, still leaves room for one validation (its operand
check reads ``inputs_of`` once per node), as when replicate counted as a
change and matrixMul ``mt`` read 96 calls.  A consumer that goes back to
the graph per node, or a second index build, exceeds it at once: before
the index existed, matrixMul ``mt`` made 682 such calls on its 95-node
graph, matrixMul ``dmt`` 471 on 91 and scan ``dmt`` 28 on 5.

A generator's resumes are ``call`` events too; each generator frame is
counted once, at its first entry.
"""

from __future__ import annotations

import inspect
import sys

import pytest

from repro.compiler.passes.replicate import ReplicatePass
from repro.compiler.pipeline import compile_kernel
from repro.graph.dfg import DataflowGraph
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.sim import simulate
from repro.workloads.registry import get_workload

#: The graph's whole-graph and per-node adjacency walkers.
WALKERS = ("edges", "successors", "inputs_of")


def _walks_after_the_last_pass(workload: str, variant: str) -> tuple[dict[str, int], int]:
    prepared = get_workload(workload).prepare(DEFAULT_SUITE_PARAMS[workload], seed=0)
    launch = prepared.launch(variant)
    walkers = {getattr(DataflowGraph, name).__code__: name for name in WALKERS}
    last_pass = ReplicatePass.run.__code__
    calls = dict.fromkeys(WALKERS, 0)
    counting = False
    entered: list = []  # generator frames already counted, kept alive

    def profile(frame, event, arg):
        nonlocal counting
        code = frame.f_code
        if event == "return" and code is last_pass:
            counting = True
        elif event == "call" and counting and code in walkers:
            if any(seen is frame for seen in entered):
                return
            if code.co_flags & inspect.CO_GENERATOR:  # later resumes are not calls
                entered.append(frame)
            calls[walkers[code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        compiled = compile_kernel(launch.graph)
        simulate(compiled, launch)
    finally:
        sys.setprofile(previous)
    assert counting, "the last compiler pass never ran"
    return calls, len(compiled.graph)


@pytest.mark.parametrize(
    ("workload", "variant"), [("matrixMul", "mt"), ("matrixMul", "dmt"), ("scan", "dmt")]
)
def test_consumers_read_the_index_not_the_graph(workload, variant):
    calls, nodes = _walks_after_the_last_pass(workload, variant)
    assert sum(calls.values()) <= nodes + 4, calls
