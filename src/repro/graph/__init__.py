"""Dataflow-graph intermediate representation."""

from repro.graph.dfg import DataflowGraph
from repro.graph.node import Edge, Node
from repro.graph.opcodes import DType, OpInfo, Opcode, UnitClass, opcode_info
from repro.graph.semantics import PURE_OPCODES, evaluate_pure
from repro.graph.validate import validate_graph

__all__ = [
    "DataflowGraph",
    "Edge",
    "Node",
    "DType",
    "OpInfo",
    "Opcode",
    "UnitClass",
    "opcode_info",
    "PURE_OPCODES",
    "evaluate_pure",
    "validate_graph",
]
