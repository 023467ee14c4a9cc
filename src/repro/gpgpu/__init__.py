"""Fermi-like von Neumann GPGPU baseline: ISA, programs and SIMT simulator."""

from repro.gpgpu.isa import Imm, Instruction, Op, Pred, Reg, Special
from repro.gpgpu.program import SimtProgram, SimtProgramBuilder
from repro.gpgpu.simulator import FermiSimulator, run_fermi

__all__ = [
    "FermiSimulator",
    "Imm",
    "Instruction",
    "Op",
    "Pred",
    "Reg",
    "SimtProgram",
    "SimtProgramBuilder",
    "Special",
    "run_fermi",
]
