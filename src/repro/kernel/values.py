"""SSA value handles returned by the kernel builder.

A :class:`Value` wraps a dataflow-graph node and supports Python operator
overloading, so kernels read close to the CUDA pseudo-code in the paper::

    result = lt_elem * kernel0 + mem_elem * kernel1 + rt_elem * kernel2
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.graph.node import Node
from repro.graph.opcodes import DType, Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.builder import KernelBuilder

__all__ = ["Value", "Scalar", "ValueLike"]

Scalar = Union[int, float, bool]
ValueLike = Union["Value", Scalar]


class Value:
    """Handle to the output of one dataflow node."""

    __slots__ = ("builder", "node")

    def __init__(self, builder: "KernelBuilder", node: Node) -> None:
        self.builder = builder
        self.node = node

    @property
    def node_id(self) -> int:
        return self.node.node_id

    @property
    def dtype(self) -> DType:
        return self.node.dtype

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.ADD, self, other)

    def __radd__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.ADD, other, self)

    def __sub__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.SUB, self, other)

    def __rsub__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.SUB, other, self)

    def __mul__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.MUL, self, other)

    def __rmul__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.MUL, other, self)

    def __truediv__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.DIV, self, other)

    def __rtruediv__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.DIV, other, self)

    def __mod__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.MOD, self, other)

    def __neg__(self) -> "Value":
        return self.builder.unary(Opcode.NEG, self)

    def __abs__(self) -> "Value":
        return self.builder.unary(Opcode.ABS, self)

    # ------------------------------------------------------------ bitwise
    def __and__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.AND, self, other)

    def __or__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.OR, self, other)

    def __xor__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.XOR, self, other)

    def __lshift__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.SHL, self, other)

    def __rshift__(self, other: ValueLike) -> "Value":
        return self.builder.binary(Opcode.SHR, self, other)

    # ----------------------------------------------------------- comparison
    def __lt__(self, other: ValueLike) -> "Value":
        return self.builder.compare(Opcode.LT, self, other)

    def __le__(self, other: ValueLike) -> "Value":
        return self.builder.compare(Opcode.LE, self, other)

    def __gt__(self, other: ValueLike) -> "Value":
        return self.builder.compare(Opcode.GT, self, other)

    def __ge__(self, other: ValueLike) -> "Value":
        return self.builder.compare(Opcode.GE, self, other)

    def eq(self, other: ValueLike) -> "Value":
        """Element-wise equality (``==`` is kept as Python identity)."""
        return self.builder.compare(Opcode.EQ, self, other)
