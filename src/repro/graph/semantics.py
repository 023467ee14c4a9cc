"""Operational semantics of dataflow opcodes.

Every opcode's meaning is stated once, in the per-``(opcode, dtype)``
function table ``_PURE_FUNCTIONS``.  The functional interpreter and
constant folding evaluate through :func:`evaluate_pure`; the event engine
binds each node's entry once (:func:`pure_function`) and calls it per
firing.  Either way they cannot diverge on the meaning of an opcode.
Memory and inter-thread opcodes are *not* handled here — they interact
with the memory hierarchy / token retagging machinery and are
implemented by the simulators themselves.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from repro.errors import SimulationError
from repro.graph.node import Node
from repro.graph.opcodes import DType, Opcode

__all__ = [
    "evaluate_pure",
    "PURE_OPCODES",
    "coerce",
    "converter",
    "pure_function",
]

_INT_MASK = 0xFFFFFFFF

#: The Python type that represents each dtype's values.
_CONVERTERS: dict[DType, type] = {DType.F32: float, DType.BOOL: bool, DType.I32: int}


def _as_u32(value: int) -> int:
    return int(value) & _INT_MASK


def converter(dtype: DType) -> type:
    """The Python type (``float``/``int``/``bool``) values of ``dtype`` take."""
    return _CONVERTERS[dtype]


def coerce(value: float | int | bool, dtype: DType) -> float | int | bool:
    """Coerce ``value`` to the Python representation of ``dtype``."""
    return _CONVERTERS[dtype](value)


def _int_div(o: Sequence) -> int:
    a, b = int(o[0]), int(o[1])
    if b == 0:
        raise SimulationError("integer division by zero in kernel graph")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(o: Sequence) -> int:
    a, b = int(o[0]), int(o[1])
    if b == 0:
        raise SimulationError("integer modulo by zero in kernel graph")
    return a - _int_div(o) * b


def _float_div(o: Sequence) -> float:
    a, b = o[0], o[1]
    if b == 0:
        return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
    return float(a) / float(b)


def _float_mod(o: Sequence) -> float:
    a, b = float(o[0]), float(o[1])
    # IEEE fmod is NaN for a zero divisor or an infinite dividend, where
    # ``math.fmod`` would raise instead.
    if b == 0 or math.isinf(a):
        return math.nan
    return math.fmod(a, b)


#: How each pure opcode computes its result.  Every entry is called once
#: per dtype with that dtype's converter ``c`` (``float``/``int``/``bool``)
#: and returns the function of the operand sequence ``o`` that
#: ``_PURE_FUNCTIONS`` holds for ``(opcode, dtype)``.  Integer arithmetic
#: uses C-style truncating division/modulo; bitwise operations interpret
#: operands as 32-bit values; comparisons produce Python booleans.
_SEMANTICS: dict[Opcode, Callable[[type], Callable[[Sequence], Any]]] = {
    Opcode.ADD: lambda c: lambda o: c(o[0] + o[1]),
    Opcode.SUB: lambda c: lambda o: c(o[0] - o[1]),
    Opcode.MUL: lambda c: lambda o: c(o[0] * o[1]),
    Opcode.DIV: lambda c: _float_div if c is float else _int_div,
    Opcode.MOD: lambda c: _float_mod if c is float else _int_mod,
    Opcode.MIN: lambda c: lambda o: c(min(o[0], o[1])),
    Opcode.MAX: lambda c: lambda o: c(max(o[0], o[1])),
    Opcode.ABS: lambda c: lambda o: c(abs(o[0])),
    Opcode.NEG: lambda c: lambda o: c(-o[0]),
    Opcode.FMA: lambda c: lambda o: c(o[0] * o[1] + o[2]),
    Opcode.SQRT: lambda c: lambda o: math.sqrt(o[0]) if o[0] >= 0 else math.nan,
    Opcode.RSQRT: lambda c: lambda o: 1.0 / math.sqrt(o[0]) if o[0] > 0 else math.inf,
    Opcode.EXP: lambda c: lambda o: math.exp(o[0]),
    Opcode.LOG: lambda c: lambda o: math.log(o[0]) if o[0] > 0 else -math.inf,
    Opcode.RCP: lambda c: lambda o: float(1.0 / o[0]) if o[0] != 0 else math.inf,
    Opcode.AND: lambda c: lambda o: c(_as_u32(o[0]) & _as_u32(o[1])),
    Opcode.OR: lambda c: lambda o: c(_as_u32(o[0]) | _as_u32(o[1])),
    Opcode.XOR: lambda c: lambda o: c(_as_u32(o[0]) ^ _as_u32(o[1])),
    Opcode.NOT: lambda c: lambda o: c(_as_u32(~_as_u32(o[0]))),
    Opcode.SHL: lambda c: lambda o: c(_as_u32(_as_u32(o[0]) << (int(o[1]) & 31))),
    Opcode.SHR: lambda c: lambda o: c(_as_u32(o[0]) >> (int(o[1]) & 31)),
    Opcode.LT: lambda c: lambda o: o[0] < o[1],
    Opcode.LE: lambda c: lambda o: o[0] <= o[1],
    Opcode.GT: lambda c: lambda o: o[0] > o[1],
    Opcode.GE: lambda c: lambda o: o[0] >= o[1],
    Opcode.EQ: lambda c: lambda o: o[0] == o[1],
    Opcode.NE: lambda c: lambda o: o[0] != o[1],
    Opcode.LAND: lambda c: lambda o: bool(o[0]) and bool(o[1]),
    Opcode.LOR: lambda c: lambda o: bool(o[0]) or bool(o[1]),
    Opcode.LNOT: lambda c: lambda o: not bool(o[0]),
    Opcode.SELECT: lambda c: lambda o: c(o[1] if bool(o[0]) else o[2]),
    Opcode.SPLIT: lambda c: lambda o: o[0],
    # JOIN forwards operand 0 but synchronises on both operands.
    Opcode.JOIN: lambda c: lambda o: o[0],
}

#: Opcodes whose result depends only on their operand values.
PURE_OPCODES = frozenset(_SEMANTICS)


def _canonical_nan(f: Callable[[Sequence], Any]) -> Callable[[Sequence], Any]:
    """``f`` with a NaN result replaced by ``math.nan``.

    IEEE 754 leaves the sign of a propagated NaN open, and CPython's
    float ops pick an operand's NaN differently when a profile or trace
    hook is set, so every F32 result carries one NaN bit pattern.
    """

    def canonical(o: Sequence) -> Any:
        result = f(o)
        return result if result == result else math.nan

    return canonical


#: ``(opcode, dtype) -> f(operands)`` for every pure opcode and dtype.
_PURE_FUNCTIONS: dict[tuple[Opcode, DType], Callable[[Sequence], Any]] = {
    (op, dt): _canonical_nan(make(conv)) if dt is DType.F32 else make(conv)
    for op, make in _SEMANTICS.items()
    for dt, conv in _CONVERTERS.items()
}


def pure_function(node: Node) -> Callable[[Sequence], Any]:
    """``node``'s semantics: the function from its operand sequence to its result."""
    try:
        return _PURE_FUNCTIONS[(node.opcode, node.dtype)]
    except KeyError:
        raise SimulationError(f"{node.opcode.value} is not a pure opcode") from None


def evaluate_pure(node: Node, operands: Sequence[float | int | bool]) -> Any:
    """Evaluate a pure opcode on concrete operand values."""
    return pure_function(node)(operands)
