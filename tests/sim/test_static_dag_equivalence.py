"""Property sweep: the static sub-DAG rule, event engine against batched.

The batched engine times a node fed only by thread-index and constant
sources (or by pure nodes fed only by them) once per kernel: it fires at
its thread's injection cycle plus a constant, with no issue-port queue,
and on a wave that tracks the event engine's firing order its firings
are recorded by broadcast, decided on every thread by one input edge
(``sim/batched.py::_static_walk``).  Hypothesis draws small pure DAGs
over those sources (fan-in 1 to 3), the issue-port count (``replicas``
1 to 4) and the NoC latency, and feeds the DAG's value to one store,
directly, through a whole-block barrier placed after any node, or next
to a scratchpad store of the same value (both make the wave track the
firing order).  The two engines must give bit-identical outputs, equal
cycles and equal ``counters()``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.pipeline import compile_kernel
from repro.config.system import NocConfig, default_system_config
from repro.graph.opcodes import DType, Opcode
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.launch import KernelLaunch

pytestmark = pytest.mark.slow

#: The DAG's leaves: value ``i`` of a DAG is leaf ``i`` for ``i < 4``.
LEAVES = 4
UNARY = ("neg", "abs")
BINARY = ("add", "sub", "min", "max", "xor")
_OPCODES = {
    "neg": Opcode.NEG,
    "abs": Opcode.ABS,
    "add": Opcode.ADD,
    "sub": Opcode.SUB,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    "xor": Opcode.XOR,
}


@st.composite
def static_dags(draw):
    """``(n, replicas, zero_noc, sink, barrier_after, ops)``; each op is
    ``(name, operand values)``, the operands drawn from the leaves and
    the earlier ops' values."""
    n = draw(st.integers(4, 40))
    replicas = draw(st.integers(1, 4))
    zero_noc = draw(st.booleans())
    count = draw(st.integers(1, 6))
    ops = []
    for i in range(count):
        fan_in = draw(st.integers(1, 3))
        name = draw(
            st.sampled_from({1: UNARY, 2: BINARY, 3: ("select",)}[fan_in])
        )
        args = tuple(draw(st.integers(0, LEAVES + i - 1)) for _ in range(fan_in))
        ops.append((name, args))
    sink = draw(st.sampled_from(["store", "barrier", "scratch"]))
    barrier_after = draw(st.integers(0, count - 1))
    return n, replicas, zero_noc, sink, barrier_after, tuple(ops)


def _build(n, sink, barrier_after, ops):
    b = KernelBuilder("static_dag", n)
    b.global_array("out", n, dtype=DType.I32)
    tid = b.thread_idx_linear()
    values = [b.thread_idx_x(), tid, b.const(3, DType.I32), b.const(-2, DType.I32)]
    for i, (name, args) in enumerate(ops):
        operands = [values[a] for a in args]
        if name == "select":
            x, y, z = operands
            value = b.select(b.compare(Opcode.LT, x, y), y, z)
        elif name in UNARY:
            value = b.unary(_OPCODES[name], *operands)
        else:
            value = b.binary(_OPCODES[name], *operands)
        if sink == "barrier" and i == barrier_after:
            value = b.barrier(value)
        values.append(value)
    order = None
    if sink == "scratch":
        # Two stores to one bank per thread: the one the event engine
        # processes second waits a cycle, and the global store waits
        # for the first.
        b.scratch_array("shared", n, dtype=DType.I32)
        order = b.scratch_store("shared", tid, values[-1])
        b.scratch_store("shared", tid, values[-2])
    b.store("out", tid, values[-1], order=order)
    return b.finish()


@given(static_dags())
# With every edge one cycle long, NEG(tid_x) and ABS(tid) fire on one
# cycle, and so do the SUB and the ADD that both feed: each of those two
# sees its operand tokens arrive on one cycle from different pushers.  The
# NEG's token is the later-processed one (the injection event pushes
# tid_x's tokens after tid's), so it decides both firings although it is
# the ADD's second operand; the NEG then pushes to the SUB first, so the
# SUB's scratch store is served first and the ADD's waits a cycle on the
# shared bank, delaying the global store ordered after it.
@example(
    (16, 1, True, "scratch", 0, (("neg", (0,)), ("abs", (1,)), ("sub", (4, 5)), ("add", (5, 4))))
)
@example((16, 2, True, "barrier", 1, (("sub", (0, 2)), ("max", (1, 3)), ("add", (5, 4)))))
@settings(max_examples=150, deadline=None)
def test_static_dag_is_engine_invariant(dag):
    n, replicas, zero_noc, sink, barrier_after, ops = dag
    graph = _build(n, sink, barrier_after, ops)
    config = dataclasses.replace(default_system_config(), max_graph_replicas=replicas)
    if zero_noc:
        config = dataclasses.replace(config, noc=NocConfig(hop_latency=0, injection_latency=0))
    compiled = compile_kernel(graph, config.validate())

    event = simulate(compiled, KernelLaunch(graph, {}), engine="event")
    batched = simulate(compiled, KernelLaunch(graph, {}))
    assert batched.engine != "event"

    assert np.array_equal(event.array("out"), batched.array("out"))
    assert batched.cycles == event.cycles
    event_counters, batched_counters = event.counters(), batched.counters()
    for counter, value in event_counters.items():
        if counter != "engine":
            assert batched_counters[counter] == value, counter
