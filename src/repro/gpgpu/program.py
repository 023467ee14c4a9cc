"""SIMT programs and the builder used to write the Fermi baseline kernels.

A :class:`SimtProgram` is the baseline analogue of a compiled dataflow
graph: a list of instructions, the labels branch targets resolve to, the
kernel's array declarations and the thread-block geometry.  The
:class:`SimtProgramBuilder` offers a thin, register-allocating layer so the
nine baseline kernels read close to hand-written PTX without bookkeeping
noise; loops are emitted as explicit backward branches so the simulator
pays instruction fetch/issue for every iteration, exactly the von Neumann
cost the paper contrasts against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import IsaError
from repro.graph.opcodes import DType
from repro.gpgpu.isa import Instruction, Op, Operand, Pred, Reg, Special
from repro.kernel.arrays import ArraySpec, ArrayTable, MemorySpace
from repro.kernel.geometry import ThreadGeometry

__all__ = ["SimtProgram", "SimtProgramBuilder"]


@dataclass
class SimtProgram:
    """A complete SIMT kernel for the Fermi baseline."""

    name: str
    geometry: ThreadGeometry
    instructions: list[Instruction]
    labels: dict[str, int]
    arrays: ArrayTable
    num_registers: int
    num_predicates: int

    def __post_init__(self) -> None:
        for instr in self.instructions:
            if instr.op is Op.BRA and instr.target not in self.labels:
                raise IsaError(f"undefined branch target '{instr.target}'")
        if not any(instr.op is Op.EXIT for instr in self.instructions):
            raise IsaError(f"program '{self.name}' has no EXIT instruction")
        # Control must never run past the last instruction: every label lands
        # on an instruction and the program ends in an unconditional transfer.
        end = len(self.instructions)
        for label, pc in self.labels.items():
            if not 0 <= pc < end:
                raise IsaError(
                    f"label '{label}' of program '{self.name}' points at pc {pc}, "
                    f"outside its {end} instructions"
                )
        last = self.instructions[-1]
        if last.op not in (Op.EXIT, Op.BRA) or last.guard is not None:
            raise IsaError(
                f"program '{self.name}' ends in '{last!r}'; the last instruction must be "
                "an unguarded exit or bra"
            )

    @property
    def num_threads(self) -> int:
        return self.geometry.num_threads

    def listing(self) -> str:
        """Human-readable assembly listing."""
        by_pc: dict[int, list[str]] = {}
        for label, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(label)
        lines = [f"// kernel {self.name}  block={self.geometry.block_dim}"]
        for pc, instr in enumerate(self.instructions):
            for label in by_pc.get(pc, []):
                lines.append(f"{label}:")
            lines.append(f"  {pc:3d}: {instr!r}")
        return "\n".join(lines)


class SimtProgramBuilder:
    """Builds a :class:`SimtProgram` instruction by instruction."""

    def __init__(self, name: str, block_dim: Sequence[int] | int) -> None:
        if isinstance(block_dim, int):
            block_dim = (block_dim,)
        self.name = name
        self.geometry = ThreadGeometry(tuple(block_dim))
        self.arrays = ArrayTable()
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._next_reg = 0
        self._next_pred = 0

    # ------------------------------------------------------------------ arrays
    def global_array(
        self, name: str, length: int, dtype: DType = DType.F32, elem_bytes: int = 4
    ) -> ArraySpec:
        return self.arrays.declare(name, length, dtype, MemorySpace.GLOBAL, elem_bytes)

    def shared_array(
        self, name: str, length: int, dtype: DType = DType.F32, elem_bytes: int = 4
    ) -> ArraySpec:
        return self.arrays.declare(name, length, dtype, MemorySpace.SHARED, elem_bytes)

    # --------------------------------------------------------------- registers
    def reg(self) -> Reg:
        """Allocate a fresh general-purpose register."""
        reg = Reg(self._next_reg)
        self._next_reg += 1
        return reg

    def pred(self) -> Pred:
        """Allocate a fresh predicate register."""
        pred = Pred(self._next_pred)
        self._next_pred += 1
        return pred

    # ------------------------------------------------------------------ labels
    def label(self, name: str) -> str:
        """Define label ``name`` at the current position."""
        if name in self._labels:
            raise IsaError(f"label '{name}' is already defined")
        self._labels[name] = len(self._instructions)
        return name

    # ----------------------------------------------------------------- emitter
    def emit(self, instruction: Instruction) -> Instruction:
        self._instructions.append(instruction)
        return instruction

    def _binary(self, op: Op, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(op, dst=dst, srcs=(a, b)))
        return dst

    # Arithmetic helpers -----------------------------------------------------
    def mov(self, src: Operand, dst: Reg | None = None) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(Op.MOV, dst=dst, srcs=(src,)))
        return dst

    def add(self, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        return self._binary(Op.ADD, a, b, dst)

    def sub(self, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        return self._binary(Op.SUB, a, b, dst)

    def mul(self, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        return self._binary(Op.MUL, a, b, dst)

    def div(self, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        return self._binary(Op.DIV, a, b, dst)

    def mod(self, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        return self._binary(Op.MOD, a, b, dst)

    def neg(self, a: Operand, dst: Reg | None = None) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(Op.NEG, dst=dst, srcs=(a,)))
        return dst

    def minimum(self, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        return self._binary(Op.MIN, a, b, dst)

    def maximum(self, a: Operand, b: Operand, dst: Reg | None = None) -> Reg:
        return self._binary(Op.MAX, a, b, dst)

    def fma(self, a: Operand, b: Operand, c: Operand, dst: Reg | None = None) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(Op.FMA, dst=dst, srcs=(a, b, c)))
        return dst

    def mad(self, a: Operand, b: Operand, c: Operand, dst: Reg | None = None) -> Reg:
        """Integer multiply-add (index arithmetic)."""
        dst = dst or self.reg()
        self.emit(Instruction(Op.MAD, dst=dst, srcs=(a, b, c)))
        return dst

    def sqrt(self, a: Operand, dst: Reg | None = None) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(Op.SQRT, dst=dst, srcs=(a,)))
        return dst

    def exp(self, a: Operand, dst: Reg | None = None) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(Op.EXP, dst=dst, srcs=(a,)))
        return dst

    def rcp(self, a: Operand, dst: Reg | None = None) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(Op.RCP, dst=dst, srcs=(a,)))
        return dst

    # Predicates / select ------------------------------------------------------
    def setp(self, op: Op, a: Operand, b: Operand, dst: Pred | None = None) -> Pred:
        if not op.value.startswith("setp"):
            raise IsaError(f"{op.value} is not a predicate comparison")
        dst = dst or self.pred()
        self.emit(Instruction(op, dst=dst, srcs=(a, b)))
        return dst

    def select(
        self, pred: Pred, if_true: Operand, if_false: Operand, dst: Reg | None = None
    ) -> Reg:
        dst = dst or self.reg()
        self.emit(Instruction(Op.SEL, dst=dst, srcs=(pred, if_true, if_false)))
        return dst

    # Memory -------------------------------------------------------------------
    def ld_global(self, array: str, index: Operand, dst: Reg | None = None,
                  guard: Pred | None = None, guard_negated: bool = False) -> Reg:
        self._check_space(array, MemorySpace.GLOBAL)
        dst = dst or self.reg()
        self.emit(Instruction(Op.LD_GLOBAL, dst=dst, srcs=(index,), array=array,
                              guard=guard, guard_negated=guard_negated))
        return dst

    def st_global(self, array: str, index: Operand, value: Operand,
                  guard: Pred | None = None, guard_negated: bool = False) -> None:
        self._check_space(array, MemorySpace.GLOBAL)
        self.emit(Instruction(Op.ST_GLOBAL, srcs=(index, value), array=array,
                              guard=guard, guard_negated=guard_negated))

    def ld_shared(self, array: str, index: Operand, dst: Reg | None = None,
                  guard: Pred | None = None, guard_negated: bool = False) -> Reg:
        self._check_space(array, MemorySpace.SHARED)
        dst = dst or self.reg()
        self.emit(Instruction(Op.LD_SHARED, dst=dst, srcs=(index,), array=array,
                              guard=guard, guard_negated=guard_negated))
        return dst

    def st_shared(self, array: str, index: Operand, value: Operand,
                  guard: Pred | None = None, guard_negated: bool = False) -> None:
        self._check_space(array, MemorySpace.SHARED)
        self.emit(Instruction(Op.ST_SHARED, srcs=(index, value), array=array,
                              guard=guard, guard_negated=guard_negated))

    def _check_space(self, array: str, space: str) -> None:
        spec = self.arrays.get(array)
        if spec.space != space:
            raise IsaError(f"array '{array}' is not in the {space} space")

    # Control ------------------------------------------------------------------
    def barrier(self) -> None:
        """CUDA ``__syncthreads()``."""
        self.emit(Instruction(Op.BAR_SYNC))

    def branch(self, target: str, guard: Pred | None = None, guard_negated: bool = False) -> None:
        self.emit(Instruction(Op.BRA, target=target, guard=guard, guard_negated=guard_negated))

    def exit(self) -> None:
        self.emit(Instruction(Op.EXIT))

    # Convenience --------------------------------------------------------------
    def tid_x(self) -> Reg:
        return self.mov(Special.TID_X)

    def tid_y(self) -> Reg:
        return self.mov(Special.TID_Y)

    def tid_linear(self) -> Reg:
        return self.mov(Special.TID_LINEAR)

    # ------------------------------------------------------------------- build
    def finish(self) -> SimtProgram:
        if not self._instructions or self._instructions[-1].op is not Op.EXIT:
            self.exit()
        return SimtProgram(
            name=self.name,
            geometry=self.geometry,
            instructions=list(self._instructions),
            labels=dict(self._labels),
            arrays=self.arrays,
            num_registers=self._next_reg,
            num_predicates=self._next_pred,
        )
