"""Tests for the dataflow-graph container."""

import pytest

from repro.errors import GraphError
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import DType, Opcode, UnitClass


def _small_graph() -> DataflowGraph:
    g = DataflowGraph("g")
    a = g.add_node(Opcode.CONST, params={"value": 1})
    b = g.add_node(Opcode.CONST, params={"value": 2})
    add = g.add_node(Opcode.ADD)
    out = g.add_node(Opcode.OUTPUT, params={"name": "r"})
    g.add_edge(a, add, 0)
    g.add_edge(b, add, 1)
    g.add_edge(add, out, 0)
    return g


def test_add_node_assigns_unique_ids():
    g = _small_graph()
    ids = [n.node_id for n in g.nodes]
    assert len(ids) == len(set(ids)) == 4


def test_edges_and_inputs():
    g = _small_graph()
    add = g.nodes_with_opcode(Opcode.ADD)[0]
    assert sorted(g.inputs_of(add.node_id)) == [0, 1]
    assert g.arity_of(add.node_id) == 2
    assert g.num_edges() == 3


def test_duplicate_port_rejected():
    g = DataflowGraph()
    a = g.add_node(Opcode.CONST, params={"value": 1})
    neg = g.add_node(Opcode.NEG)
    g.add_edge(a, neg, 0)
    with pytest.raises(GraphError):
        g.add_edge(a, neg, 0)


def test_edge_to_unknown_node_rejected():
    g = DataflowGraph()
    a = g.add_node(Opcode.CONST, params={"value": 1})
    with pytest.raises(GraphError):
        g.add_edge(a.node_id, 999, 0)


def test_edge_from_sink_rejected():
    g = DataflowGraph()
    a = g.add_node(Opcode.CONST, params={"value": 1})
    out = g.add_node(Opcode.OUTPUT, params={"name": "x"})
    g.add_edge(a, out, 0)
    neg = g.add_node(Opcode.NEG)
    with pytest.raises(GraphError):
        g.add_edge(out, neg, 0)


def test_port_beyond_arity_rejected():
    g = DataflowGraph()
    a = g.add_node(Opcode.CONST, params={"value": 1})
    neg = g.add_node(Opcode.NEG)
    with pytest.raises(GraphError):
        g.add_edge(a, neg, 5)


def test_remove_node_drops_edges():
    g = _small_graph()
    add = g.nodes_with_opcode(Opcode.ADD)[0]
    g.remove_node(add.node_id)
    assert add.node_id not in g
    out = g.nodes_with_opcode(Opcode.OUTPUT)[0]
    assert g.arity_of(out.node_id) == 0


def test_replace_input():
    g = _small_graph()
    add = g.nodes_with_opcode(Opcode.ADD)[0]
    c = g.add_node(Opcode.CONST, params={"value": 3})
    g.replace_input(add, 1, c)
    assert g.inputs_of(add.node_id)[1] == c.node_id


def test_successors_and_predecessors():
    g = _small_graph()
    a = g.nodes[0]
    add = g.nodes_with_opcode(Opcode.ADD)[0]
    assert (add.node_id, 0) in g.successors(a.node_id)
    assert a.node_id in g.predecessors(add.node_id)
    g.replace_input(add, 1, a)  # ``a`` now drives both operands of ``add``
    assert g.successors(a.node_id) == [(add.node_id, 0), (add.node_id, 1)]
    assert g.successor_map() == {n.node_id: g.successors(n.node_id) for n in g.nodes}


def test_topological_order_is_consistent():
    g = _small_graph()
    order = [n.node_id for n in g.topological_order()]
    add = g.nodes_with_opcode(Opcode.ADD)[0]
    out = g.nodes_with_opcode(Opcode.OUTPUT)[0]
    assert order.index(add.node_id) < order.index(out.node_id)


def test_cycle_detection_in_topological_order():
    g = DataflowGraph()
    a = g.add_node(Opcode.NEG)
    b = g.add_node(Opcode.NEG)
    g.add_edge(a, b, 0)
    g.add_edge(b, a, 0)
    with pytest.raises(GraphError):
        g.topological_order()


def test_temporal_edges_excluded_from_cycles():
    g = DataflowGraph()
    elev = g.add_node(Opcode.ELEVATOR, params={"delta": 1, "const": 0})
    add = g.add_node(Opcode.ADD)
    c = g.add_node(Opcode.CONST, params={"value": 1})
    g.add_edge(elev, add, 0)
    g.add_edge(c, add, 1)
    g.add_edge(add, elev, 0)  # the recurrence (prefix sum shape)
    order = g.topological_order(ignore_temporal=True)
    assert len(order) == 3


def test_copy_is_independent():
    g = _small_graph()
    clone = g.copy("clone")
    clone.remove_node(clone.nodes_with_opcode(Opcode.ADD)[0].node_id)
    assert len(g) == 4
    assert len(clone) == 3


def test_unit_demand_skips_sources():
    g = _small_graph()
    demand = g.unit_demand()
    assert UnitClass.SOURCE not in demand
    assert demand[UnitClass.ALU] == 1


def test_float_arith_maps_to_fpu():
    g = DataflowGraph()
    n = g.add_node(Opcode.ADD, DType.F32)
    assert n.unit_class is UnitClass.FPU
