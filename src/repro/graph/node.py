"""Dataflow-graph nodes and edges."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.graph.opcodes import DType, Opcode, UnitClass, opcode_info

__all__ = ["Node", "Edge"]


@dataclass
class Node:
    """One static instruction of the kernel dataflow graph.

    Attributes
    ----------
    node_id:
        Unique integer identifier within the owning graph.
    opcode:
        The operation performed by the node.
    dtype:
        The type of the value produced on the node's output port.
    params:
        Opcode-specific static parameters, e.g. ``value`` for ``CONST``,
        ``array``/``elem_bytes`` for memory ops, ``delta``/``const``/
        ``window`` for ``ELEVATOR`` and ``delta``/``window``/``array`` for
        ``ELDST``, ``name`` for ``OUTPUT``.
    name:
        Optional human-readable label used in DOT dumps and error messages.
    """

    node_id: int
    opcode: Opcode
    dtype: DType = DType.I32
    params: dict[str, Any] = field(default_factory=dict)
    name: str = ""

    @property
    def unit_class(self) -> UnitClass:
        """The functional-unit class this node must be placed on.

        Integer arithmetic maps to ALUs and floating-point arithmetic to
        FPUs, mirroring the heterogeneous grid of Fig. 7a.
        """
        info = opcode_info(self.opcode)
        if info.unit_class is UnitClass.ALU and self.dtype.is_float:
            return UnitClass.FPU
        return info.unit_class

    @property
    def is_sink(self) -> bool:
        return not opcode_info(self.opcode).has_output

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def label(self) -> str:
        base = self.name or self.opcode.value
        return f"{base}#{self.node_id}"


class Edge(NamedTuple):
    """A directed dataflow edge: ``src`` output feeds ``dst`` operand ``dst_port``.

    ``DataflowGraph.add_edge`` validates the port; edges are rebuilt on
    every graph walk, so the tuple carries no check of its own.
    """

    src: int
    dst: int
    dst_port: int
