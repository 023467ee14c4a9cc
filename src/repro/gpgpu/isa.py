"""A small PTX-like ISA for the Fermi SIMT baseline.

The paper's GPGPU baseline is an NVIDIA Fermi SM simulated with GPGPU-Sim.
Re-creating PTX is out of scope; instead the baseline kernels are written
in a compact register-level ISA that exposes exactly the von Neumann costs
the paper contrasts against the CGRA: every executed operation is fetched,
decoded and issued; every operand passes through the register file; shared
memory is addressed explicitly; and barriers synchronise the whole block.

Operands are element indices for memory operations (the simulator converts
them to byte addresses using the array table), which keeps hand-written
kernels short without hiding any instruction the real machine would need —
address arithmetic is still explicit in the kernels (MAD/ADD of indices).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import IsaError

__all__ = ["Op", "Reg", "Pred", "Imm", "Special", "Operand", "Instruction", "LATENCY_CLASS"]


class Op(enum.Enum):
    """Instruction opcodes of the SIMT baseline ISA."""

    # data movement / integer & float arithmetic
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    MIN = "min"
    MAX = "max"
    FMA = "fma"
    MAD = "mad"
    NEG = "neg"
    ABS = "abs"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"

    # special function unit
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    EXP = "exp"
    LOG = "log"
    RCP = "rcp"

    # predicates and selection
    SETP_LT = "setp.lt"
    SETP_LE = "setp.le"
    SETP_GT = "setp.gt"
    SETP_GE = "setp.ge"
    SETP_EQ = "setp.eq"
    SETP_NE = "setp.ne"
    PAND = "pand"
    POR = "por"
    PNOT = "pnot"
    SEL = "sel"

    # memory
    LD_GLOBAL = "ld.global"
    ST_GLOBAL = "st.global"
    LD_SHARED = "ld.shared"
    ST_SHARED = "st.shared"

    # control
    BAR_SYNC = "bar.sync"
    BRA = "bra"
    EXIT = "exit"


#: Latency class of each opcode, mapped to cycle counts by the simulator.
LATENCY_CLASS: dict[Op, str] = {
    **{op: "alu" for op in (
        Op.MOV, Op.ADD, Op.SUB, Op.MUL, Op.MIN, Op.MAX, Op.FMA, Op.MAD, Op.NEG,
        Op.ABS, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SEL,
        Op.SETP_LT, Op.SETP_LE, Op.SETP_GT, Op.SETP_GE, Op.SETP_EQ, Op.SETP_NE,
        Op.PAND, Op.POR, Op.PNOT,
    )},
    **{op: "sfu" for op in (Op.DIV, Op.MOD, Op.SQRT, Op.RSQRT, Op.EXP, Op.LOG, Op.RCP)},
    Op.LD_GLOBAL: "memory",
    Op.ST_GLOBAL: "memory",
    Op.LD_SHARED: "shared",
    Op.ST_SHARED: "shared",
    Op.BAR_SYNC: "sync",
    Op.BRA: "control",
    Op.EXIT: "control",
}


@dataclass(frozen=True)
class Reg:
    """A general-purpose (per-thread) register."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise IsaError("register index must be non-negative")

    def __repr__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True)
class Pred:
    """A predicate (per-thread boolean) register."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise IsaError("predicate index must be non-negative")

    def __repr__(self) -> str:
        return f"p{self.index}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: float | int | bool

    def __repr__(self) -> str:
        return f"#{self.value}"


class Special(enum.Enum):
    """Special read-only registers (CUDA built-ins)."""

    TID_X = "%tid.x"
    TID_Y = "%tid.y"
    TID_Z = "%tid.z"
    TID_LINEAR = "%tid.linear"
    NTID_X = "%ntid.x"
    NTID_Y = "%ntid.y"
    NTID_Z = "%ntid.z"


Operand = Union[Reg, Pred, Imm, Special]


@dataclass
class Instruction:
    """One static instruction of a SIMT program."""

    op: Op
    dst: Optional[Reg | Pred] = None
    srcs: tuple[Operand, ...] = ()
    array: Optional[str] = None
    target: Optional[str] = None
    guard: Optional[Pred] = None
    guard_negated: bool = False
    comment: str = ""

    def __post_init__(self) -> None:
        self.srcs = tuple(self.srcs)
        self._validate()

    def _validate(self) -> None:
        if self.op in (Op.LD_GLOBAL, Op.ST_GLOBAL, Op.LD_SHARED, Op.ST_SHARED):
            if not self.array:
                raise IsaError(f"{self.op.value} needs an array name")
        if self.op is Op.BRA and not self.target:
            raise IsaError("bra needs a target label")
        if self.op is Op.BRA and self.dst is not None:
            raise IsaError("bra has no destination register")
        if self.op in (Op.BAR_SYNC, Op.EXIT) and (self.dst or self.srcs):
            raise IsaError(f"{self.op.value} takes no operands")
        if self.op in (Op.BAR_SYNC, Op.EXIT) and self.guard is not None:
            # The simulator retires or parks the whole warp; a guard would
            # be ignored, so it is rejected instead.
            raise IsaError(f"{self.op.value} cannot be guarded")
        if self.op.value.startswith("setp") and not isinstance(self.dst, Pred):
            raise IsaError(f"{self.op.value} writes a predicate register")

    # ------------------------------------------------------------------ helpers
    @property
    def latency_class(self) -> str:
        return LATENCY_CLASS[self.op]

    @property
    def is_memory(self) -> bool:
        return self.op in (Op.LD_GLOBAL, Op.ST_GLOBAL, Op.LD_SHARED, Op.ST_SHARED)

    @property
    def reads(self) -> tuple[Operand, ...]:
        regs = tuple(s for s in self.srcs if isinstance(s, (Reg, Pred)))
        if self.guard is not None:
            regs = regs + (self.guard,)
        return regs
