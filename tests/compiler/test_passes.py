"""Tests for the compiler passes."""

import pytest

from repro.compiler.passes.cascade import CascadeElevatorsPass, cascade_plan, split_delta
from repro.compiler.passes.constant_fold import ConstantFoldPass
from repro.compiler.passes.dce import DeadCodeEliminationPass
from repro.compiler.passes.eldst_buffer import EldstBufferPass, external_buffer_nodes
from repro.compiler.passes.replicate import ReplicatePass, max_replicas
from repro.compiler.pipeline import compile_kernel
from repro.config.system import default_system_config
from repro.errors import CompilationError
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import Opcode
from repro.kernel.builder import KernelBuilder


def _config():
    return default_system_config()


def _simple_kernel(delta=-1):
    b = KernelBuilder("k", 64)
    b.global_array("in_data", 64)
    b.global_array("out", 64)
    tid = b.thread_idx_x()
    v = b.load("in_data", tid)
    b.tag_value("v", v)
    remote = b.from_thread_or_const("v", delta, 0.0)
    b.store("out", tid, remote + (v * 1.0))
    return b.finish()


# ------------------------------------------------------------- constant fold
def test_constant_fold_collapses_constant_expressions():
    b = KernelBuilder("k", 8)
    b.global_array("out", 8)
    tid = b.thread_idx_x()
    value = (b.const(2) + b.const(3)) * b.const(4)
    b.store("out", tid, value)
    graph = b.finish()
    result = ConstantFoldPass().run(graph, _config())
    assert result.metrics["folded_nodes"] == 2
    consts = [n.param("value") for n in graph.nodes_with_opcode(Opcode.CONST)]
    assert 20 in consts


# ----------------------------------------------------------------------- DCE
def test_dce_removes_unused_subgraphs():
    b = KernelBuilder("k", 8)
    b.global_array("out", 8)
    tid = b.thread_idx_x()
    dead = tid * 17 + 3          # never stored
    live = tid + 1
    b.store("out", tid, live)
    graph = b.finish()
    before = len(graph)
    result = DeadCodeEliminationPass().run(graph, _config())
    assert result.metrics["removed_nodes"] >= 2
    assert len(graph) < before
    assert dead is not None


# ------------------------------------------------------------------- cascade
def test_split_delta_matches_figure_10a():
    assert split_delta(18, 16) == [16, 2]
    assert split_delta(-18, 16) == [-16, -2]
    assert split_delta(16, 16) == [16]
    assert cascade_plan(33, 16) == 3


def test_split_delta_rejects_zero():
    with pytest.raises(CompilationError):
        split_delta(0, 16)


def test_cascade_pass_splits_long_distances():
    graph = _simple_kernel(delta=-20)  # hardware shift +20 > 16-entry buffer
    result = CascadeElevatorsPass().run(graph, _config())
    assert result.metrics["cascaded_calls"] == 1
    elevators = graph.nodes_with_opcode(Opcode.ELEVATOR)
    assert len(elevators) == 2
    assert sum(int(n.param("delta")) for n in elevators) == 20


def test_cascade_pass_leaves_short_distances_alone():
    graph = _simple_kernel(delta=-4)
    result = CascadeElevatorsPass().run(graph, _config())
    assert not result.changed
    assert len(graph.nodes_with_opcode(Opcode.ELEVATOR)) == 1


def test_cascade_pass_spills_when_out_of_control_units():
    graph = _simple_kernel(delta=-1000)  # would need ~63 elevator nodes
    result = CascadeElevatorsPass().run(graph, _config())
    assert result.metrics.get("spilled_transfers") == 1
    elevator = graph.nodes_with_opcode(Opcode.ELEVATOR)[0]
    assert elevator.param("spilled") is True


# -------------------------------------------------------------- eLDST buffer
def test_external_buffer_nodes_formula():
    assert external_buffer_nodes(8, 16) == 0
    assert external_buffer_nodes(17, 16) == 1
    assert external_buffer_nodes(48, 16) == 2


def test_eldst_buffer_pass_plans_loops():
    b = KernelBuilder("k", (32, 2))
    b.global_array("a", 64)
    b.global_array("out", 64)
    tid = b.thread_idx_linear()
    pred = b.thread_idx_y().eq(0)
    val = b.from_thread_or_mem("a", tid, pred, src_offset=(0, -1))  # distance 32
    b.store("out", tid, val)
    graph = b.finish()
    result = EldstBufferPass().run(graph, _config())
    assert result.metrics.get("buffered_forwards") == 1
    node = graph.nodes_with_opcode(Opcode.ELDST)[0]
    assert node.param("external_buffer_nodes") == 1


# ----------------------------------------------------------------- replicate
def test_max_replicas_respects_grid_capacity():
    graph = _simple_kernel()
    replicas = max_replicas(graph.unit_demand(), _config())
    assert 1 <= replicas <= _config().max_graph_replicas


def test_replicate_pass_records_metadata():
    graph = _simple_kernel()
    result = ReplicatePass().run(graph, _config())
    assert graph.metadata["replicas"] == result.metrics["replicas"]


def test_replicate_pass_walks_the_unit_demand_once(monkeypatch):
    graph = _simple_kernel()
    walks = []
    walk = DataflowGraph.unit_demand
    monkeypatch.setattr(DataflowGraph, "unit_demand", lambda g: walks.append(g) or walk(g))
    result = ReplicatePass().run(graph, _config())
    assert len(walks) == 1
    assert result.metrics["replicas"] == max_replicas(walk(graph), _config())


# ---------------------------------------------------------------- pass order
def test_compile_runs_the_passes_in_order():
    compiled = compile_kernel(_simple_kernel(), _config())
    results = compiled.pass_results
    assert [result.pass_name for result in results] == [
        "constant-fold",
        "dead-code-elimination",
        "cascade-elevators",
        "eldst-external-buffer",
        "replicate",
    ]
    assert results[-1].metrics["replicas"] == compiled.replicas
