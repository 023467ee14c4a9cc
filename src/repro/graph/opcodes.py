"""Opcode and type definitions for the kernel dataflow-graph IR.

The MT-CGRA maps every static instruction of a kernel onto one functional
unit of the grid.  The paper's grid (Table 2) contains heterogeneous unit
classes — ALUs, FPUs, special compute units, load/store units, control
units (which double as elevator nodes in dMT-CGRA) and split/join units.
Each IR opcode therefore carries the :class:`UnitClass` it must be placed
on, its operand arity and a latency class used by the timed simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "DType",
    "EFFECT_OPCODES",
    "MEMORY_OPCODES",
    "OPCODE_INFO",
    "OpInfo",
    "Opcode",
    "SOURCE_OPCODES",
    "UnitClass",
    "opcode_info",
]


class DType(enum.Enum):
    """Value types carried by dataflow tokens."""

    I32 = "i32"
    F32 = "f32"
    BOOL = "bool"

    @property
    def is_float(self) -> bool:
        return self is DType.F32


class UnitClass(enum.Enum):
    """Physical functional-unit classes of the CGRA grid (Fig. 7a)."""

    ALU = "alu"
    FPU = "fpu"
    SPECIAL = "special"
    LDST = "ldst"
    ELDST = "eldst"
    CONTROL = "control"
    ELEVATOR = "elevator"
    SPLIT_JOIN = "split_join"
    SOURCE = "source"
    SINK = "sink"
    BARRIER = "barrier"


class Opcode(enum.Enum):
    """Static dataflow-graph operations."""

    # --- sources (values injected by the thread streamer) -----------------
    CONST = "const"
    TID_X = "tid_x"
    TID_Y = "tid_y"
    TID_LINEAR = "tid_linear"

    # --- integer / floating-point arithmetic ------------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    FMA = "fma"

    # --- special-function unit ops -----------------------------------------
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    EXP = "exp"
    LOG = "log"
    RCP = "rcp"

    # --- control-unit ops: bitwise, compares, select ------------------------
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    LAND = "land"
    LOR = "lor"
    LNOT = "lnot"
    SELECT = "select"

    # --- memory --------------------------------------------------------------
    LOAD = "load"
    STORE = "store"
    SCRATCH_LOAD = "scratch_load"
    SCRATCH_STORE = "scratch_store"

    # --- inter-thread communication (the paper's contribution) ---------------
    ELEVATOR = "elevator"
    ELDST = "eldst"

    # --- structural ----------------------------------------------------------
    SPLIT = "split"
    JOIN = "join"
    BARRIER = "barrier"
    OUTPUT = "output"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of an opcode."""

    unit_class: UnitClass
    min_arity: int
    max_arity: int
    commutative: bool = False
    has_output: bool = True

    def accepts_arity(self, n: int) -> bool:
        return self.min_arity <= n <= self.max_arity


_ARITH = {
    Opcode.ADD: OpInfo(UnitClass.ALU, 2, 2, commutative=True),
    Opcode.SUB: OpInfo(UnitClass.ALU, 2, 2),
    Opcode.MUL: OpInfo(UnitClass.ALU, 2, 2, commutative=True),
    Opcode.DIV: OpInfo(UnitClass.ALU, 2, 2),
    Opcode.MOD: OpInfo(UnitClass.ALU, 2, 2),
    Opcode.MIN: OpInfo(UnitClass.ALU, 2, 2, commutative=True),
    Opcode.MAX: OpInfo(UnitClass.ALU, 2, 2, commutative=True),
    Opcode.ABS: OpInfo(UnitClass.ALU, 1, 1),
    Opcode.NEG: OpInfo(UnitClass.ALU, 1, 1),
    Opcode.FMA: OpInfo(UnitClass.ALU, 3, 3),
}

_SPECIAL = {
    op: OpInfo(UnitClass.SPECIAL, 1, 1)
    for op in (Opcode.SQRT, Opcode.RSQRT, Opcode.EXP, Opcode.LOG, Opcode.RCP)
}

_CONTROL = {
    Opcode.AND: OpInfo(UnitClass.CONTROL, 2, 2, commutative=True),
    Opcode.OR: OpInfo(UnitClass.CONTROL, 2, 2, commutative=True),
    Opcode.XOR: OpInfo(UnitClass.CONTROL, 2, 2, commutative=True),
    Opcode.NOT: OpInfo(UnitClass.CONTROL, 1, 1),
    Opcode.SHL: OpInfo(UnitClass.CONTROL, 2, 2),
    Opcode.SHR: OpInfo(UnitClass.CONTROL, 2, 2),
    Opcode.LT: OpInfo(UnitClass.CONTROL, 2, 2),
    Opcode.LE: OpInfo(UnitClass.CONTROL, 2, 2),
    Opcode.GT: OpInfo(UnitClass.CONTROL, 2, 2),
    Opcode.GE: OpInfo(UnitClass.CONTROL, 2, 2),
    Opcode.EQ: OpInfo(UnitClass.CONTROL, 2, 2, commutative=True),
    Opcode.NE: OpInfo(UnitClass.CONTROL, 2, 2, commutative=True),
    Opcode.LAND: OpInfo(UnitClass.CONTROL, 2, 2, commutative=True),
    Opcode.LOR: OpInfo(UnitClass.CONTROL, 2, 2, commutative=True),
    Opcode.LNOT: OpInfo(UnitClass.CONTROL, 1, 1),
    Opcode.SELECT: OpInfo(UnitClass.CONTROL, 3, 3),
}

_SOURCES = {
    Opcode.CONST: OpInfo(UnitClass.SOURCE, 0, 0),
    Opcode.TID_X: OpInfo(UnitClass.SOURCE, 0, 0),
    Opcode.TID_Y: OpInfo(UnitClass.SOURCE, 0, 0),
    Opcode.TID_LINEAR: OpInfo(UnitClass.SOURCE, 0, 0),
}

_MEMORY = {
    # LOAD: index [, ordering token]
    Opcode.LOAD: OpInfo(UnitClass.LDST, 1, 2),
    # STORE: index, value [, ordering token]; produces an ack token
    Opcode.STORE: OpInfo(UnitClass.LDST, 2, 3),
    Opcode.SCRATCH_LOAD: OpInfo(UnitClass.LDST, 1, 2),
    Opcode.SCRATCH_STORE: OpInfo(UnitClass.LDST, 2, 3),
}

_INTER_THREAD = {
    # ELEVATOR: single value input; params: delta, const, window
    Opcode.ELEVATOR: OpInfo(UnitClass.ELEVATOR, 1, 1),
    # ELDST: index, enable predicate [, ordering token]; params: array, delta, window
    Opcode.ELDST: OpInfo(UnitClass.ELDST, 2, 3),
}

_STRUCTURAL = {
    Opcode.SPLIT: OpInfo(UnitClass.SPLIT_JOIN, 1, 1),
    # JOIN outputs operand 0 but waits for both operands (ordering join)
    Opcode.JOIN: OpInfo(UnitClass.SPLIT_JOIN, 2, 2),
    Opcode.BARRIER: OpInfo(UnitClass.BARRIER, 1, 1),
    Opcode.OUTPUT: OpInfo(UnitClass.SINK, 1, 1, has_output=False),
}

OPCODE_INFO: dict[Opcode, OpInfo] = {
    **_SOURCES,
    **_ARITH,
    **_SPECIAL,
    **_CONTROL,
    **_MEMORY,
    **_INTER_THREAD,
    **_STRUCTURAL,
}

#: Injected source opcodes (thread-uniform timing, no operands).
SOURCE_OPCODES: tuple[Opcode, ...] = tuple(_SOURCES)

#: Opcodes that read or write a kernel array or the scratchpad.
MEMORY_OPCODES: tuple[Opcode, ...] = (*_MEMORY, Opcode.ELDST)

#: Opcodes whose completion is a thread's visible effect: the set every
#: engine retires a thread on (a STORE still produces an ack token, so
#: this is not ``has_output``).
EFFECT_OPCODES: tuple[Opcode, ...] = (Opcode.STORE, Opcode.SCRATCH_STORE, Opcode.OUTPUT)


def opcode_info(opcode: Opcode) -> OpInfo:
    """Return the :class:`OpInfo` of ``opcode``."""
    return OPCODE_INFO[opcode]
