"""The batched engine's value pass moves all data and no time.

``BatchedSimulator._value_pass`` runs before any timing: every value a
wave moves is a function of thread IDs and memory contents, never of
cycles.  On every registry cell that ``engine="auto"`` runs on a batched
engine, calling it alone must leave every memory array and every output
equal to the event engine's, make no call into the memory model, and
leave every counter of the memory hierarchy at zero.  It returns one
access stream per memory node for the timing sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.graph.opcodes import Opcode
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator
from repro.workloads.registry import registry_kernels


def _batched_cells() -> list:
    """The cells ``engine="auto"`` runs on a batched engine, as pinned."""
    dispatch = json.loads(Path(__file__).with_name("dispatch_pin.json").read_text())
    return [
        pytest.param(w, v, id=f"{w.name}/{v}")
        for w, v in registry_kernels()
        if dispatch[f"{w.name}/{v}"]["auto@cores=None"]["engine"]
        in ("batched", "window-batched")
    ]


BATCHED_CELLS = _batched_cells()


def _no_memory_model(*args, **kwargs):
    raise AssertionError("the value pass called the memory model")


def test_value_pass_cells_cover_both_batched_engines():
    names = {param.id for param in BATCHED_CELLS}
    assert {"matrixMul/stream", "matrixMul/dmt", "matrixMul/mt", "spmv/stream"} <= names


@pytest.mark.parametrize("workload,variant", BATCHED_CELLS)
def test_value_pass_alone_moves_the_event_engines_data(workload, variant):
    prepared = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name))
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)
    simulator = BatchedSimulator(compiled, launch)
    simulator._analytic.access_batch = _no_memory_model
    simulator.hierarchy.scratchpad.access_batch = _no_memory_model

    streams = simulator._value_pass()

    event = simulate(compiled, launch, engine="event")
    for name in event.memory.names():
        assert np.array_equal(simulator.memory.array(name), event.array(name)), name
    assert simulator.outputs == event.outputs
    counted = {key: value for key, value in simulator.hierarchy.stats().flat().items() if value}
    assert not counted, counted
    memory_nodes = compiled.graph.nodes_with_opcode(
        Opcode.LOAD, Opcode.STORE, Opcode.ELDST, Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE
    )
    assert set(streams) == {node.node_id for node in memory_nodes}
