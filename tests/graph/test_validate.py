"""Tests for graph validation."""

import pytest

from repro.analyze.structure import structure_diagnostics
from repro.errors import GraphValidationError
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import DType, Opcode
from repro.graph.validate import validate_graph


def _messages(graph):
    return [diagnostic.message for diagnostic in structure_diagnostics(graph)]


def _valid_graph():
    g = DataflowGraph("valid")
    tid = g.add_node(Opcode.TID_LINEAR)
    c = g.add_node(Opcode.CONST, params={"value": 1})
    add = g.add_node(Opcode.ADD)
    store = g.add_node(Opcode.STORE, params={"array": "out", "elem_bytes": 4})
    g.add_edge(tid, add, 0)
    g.add_edge(c, add, 1)
    g.add_edge(tid, store, 0)
    g.add_edge(add, store, 1)
    return g


def test_valid_graph_passes():
    validate_graph(_valid_graph())


def test_missing_operand_detected():
    g = _valid_graph()
    add = g.nodes_with_opcode(Opcode.ADD)[0]
    g2 = DataflowGraph()
    # Build a graph with an under-fed ADD directly.
    a = g2.add_node(Opcode.CONST, params={"value": 1})
    bad = g2.add_node(Opcode.ADD)
    st = g2.add_node(Opcode.STORE, params={"array": "o"})
    g2.add_edge(a, bad, 0)
    g2.add_edge(a, st, 0)
    g2.add_edge(bad, st, 1)
    issues = _messages(g2)
    assert any("operands" in issue for issue in issues)
    assert add is not None


def test_const_without_value_detected():
    g = DataflowGraph()
    c = g.add_node(Opcode.CONST)
    st = g.add_node(Opcode.STORE, params={"array": "o"})
    g.add_edge(c, st, 0)
    g.add_edge(c, st, 1)
    assert any("value" in i for i in _messages(g))


def test_elevator_without_delta_detected():
    g = DataflowGraph()
    c = g.add_node(Opcode.CONST, params={"value": 1})
    e = g.add_node(Opcode.ELEVATOR, params={"const": 0})
    st = g.add_node(Opcode.STORE, params={"array": "o"})
    g.add_edge(c, e, 0)
    g.add_edge(c, st, 0)
    g.add_edge(e, st, 1)
    assert any("delta" in i for i in _messages(g))


def test_graph_without_side_effects_detected():
    g = DataflowGraph()
    g.add_node(Opcode.CONST, params={"value": 1})
    assert any("no STORE or OUTPUT" in i for i in _messages(g))


def test_comparison_must_be_bool():
    g = DataflowGraph()
    a = g.add_node(Opcode.CONST, params={"value": 1})
    lt = g.add_node(Opcode.LT, DType.I32)
    st = g.add_node(Opcode.STORE, params={"array": "o"})
    g.add_edge(a, lt, 0)
    g.add_edge(a, lt, 1)
    g.add_edge(a, st, 0)
    g.add_edge(lt, st, 1)
    assert any("BOOL" in i for i in _messages(g))


def test_validate_raises_with_all_issues():
    g = DataflowGraph("broken")
    g.add_node(Opcode.CONST)
    with pytest.raises(GraphValidationError) as excinfo:
        validate_graph(g)
    assert "broken" in str(excinfo.value)
