"""Cycle-level simulator of the Fermi-like SIMT baseline (one GTX480 SM).

The model reproduces the first-order von Neumann costs the paper measures
the CGRA against:

* **instruction issue width** — two warp schedulers, each issuing one
  instruction per cycle from a ready warp, which caps throughput at
  ``2 x 32`` lane-operations per cycle no matter how many ALUs exist;
* **register-file traffic** — every operand is read from and every result
  written to the register file (counted per lane for the energy model);
* **scoreboarding** — an instruction does not issue until the registers it
  reads are ready (ALU latency, SFU latency, or the memory latency returned
  by the shared L1/L2/DRAM hierarchy);
* **shared-memory** accesses with bank-conflict serialisation, and global
  accesses coalesced into 128-byte transactions (write-through,
  write-no-allocate L1, as configured for Fermi in the paper);
* **barriers** that stall every warp until the whole block arrives.

Branches must be warp-uniform (the nine evaluated kernels use predication
for lane-divergent behaviour), which matches how the hand-written baseline
kernels are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

import numpy as np

from repro.config.system import SystemConfig, default_system_config
from repro.errors import GpgpuExecutionError
from repro.gpgpu.isa import Imm, Instruction, Op, Pred, Reg, Special
from repro.gpgpu.program import SimtProgram
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage, out_of_bounds
from repro.memory.request import AccessType
from repro.sim.result import MAX_CYCLES, SimulationResult
from repro.sim.stats import ExecutionStats

__all__ = ["FermiSimulator", "run_fermi"]


class _Decoded(NamedTuple):
    """The static facts of one instruction the scheduler and issue stage use.

    Built once per run from the program, so the per-cycle scoreboard check
    and the issue stage do tuple lookups instead of re-deriving them.
    """

    instr: Instruction
    #: Index of the instruction's execution pipe (its latency class).
    pipe: int
    #: Cycles the instruction occupies its pipe (``FermiConfig.dispatch_cycles``).
    dispatch: int
    #: ``_Warp.ready`` slots the scoreboard waits on (sources + guard).
    reads: tuple[int, ...]
    #: Register-file reads per active lane (``Reg``/``Pred`` source operands).
    reg_sources: int
    #: ``(kind, payload)`` per source operand; see :meth:`FermiSimulator._operand`.
    srcs: tuple[tuple[int, Any], ...]
    #: Branch target pc, or ``-1``.
    target: int


# Source-operand kinds of ``_Decoded.srcs``.
_REG, _PRED, _IMM, _SPECIAL = range(4)


@dataclass
class _Warp:
    """Mutable per-warp execution state."""

    warp_id: int
    lanes: np.ndarray  # linear thread IDs covered by this warp
    #: ``lanes`` as a slice (warps cover contiguous thread IDs).
    span: slice
    #: All-lanes-active mask (read-only; used for unguarded instructions).
    full_mask: np.ndarray
    #: Per-lane value of every ``Special`` register (read-only).
    specials: dict[Special, np.ndarray]
    #: Scoreboard: the cycle each register, then each predicate, is ready.
    ready: list[int]
    pc: int = 0
    done: bool = False
    at_barrier: bool = False
    next_free: int = 0


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class FermiSimulator:
    """Executes a :class:`SimtProgram` on the Fermi-like SM model."""

    def __init__(
        self,
        program: SimtProgram,
        inputs: Mapping[str, np.ndarray] | None = None,
        config: SystemConfig | None = None,
    ) -> None:
        self.program = program
        self.config = config or default_system_config()
        self.fermi = self.config.fermi

        self.num_threads = program.num_threads
        self.memory = MemoryImage(program.arrays)
        if inputs:
            self.memory.initialise(dict(inputs))
        self.hierarchy = MemoryHierarchy(
            self.config.memory, l1_write_through=self.fermi.l1_write_through
        )
        self.stats = ExecutionStats(threads=self.num_threads)

        self.registers = np.zeros((max(1, program.num_registers), self.num_threads))
        self.predicates = np.zeros(
            (max(1, program.num_predicates), self.num_threads), dtype=bool
        )
        # Execution-pipe occupancy: a warp instruction is dispatched over the
        # SM's execution units of its class (32 CUDA cores, 16 LD/ST units,
        # 4 SFUs), which bounds per-class instruction throughput.  One slot
        # per latency class, indexed by ``_Decoded.pipe``.
        self._pipes: list[str] = []
        self._pipe_free: list[int] = []
        # ``_Warp.ready`` holds the registers, then the predicates.
        self._pred_base = max(1, program.num_registers)
        self._decoded = [self._decode(instr) for instr in program.instructions]
        self._warps = self._build_warps()
        self._live = len(self._warps)
        self._waiting = 0  # warps parked at the barrier

    # ------------------------------------------------------------------ setup
    def _decode(self, instr: Instruction) -> _Decoded:
        cls = instr.latency_class
        if cls not in self._pipes:
            self._pipes.append(cls)
            self._pipe_free.append(0)
        srcs = []
        for operand in instr.srcs:
            if isinstance(operand, Reg):
                srcs.append((_REG, operand.index))
            elif isinstance(operand, Pred):
                srcs.append((_PRED, operand.index))
            elif isinstance(operand, Imm):
                srcs.append((_IMM, float(operand.value)))
            elif isinstance(operand, Special):
                srcs.append((_SPECIAL, operand))
            else:
                raise GpgpuExecutionError(f"unknown operand {operand!r}")
        return _Decoded(
            instr=instr,
            pipe=self._pipes.index(cls),
            dispatch=self.fermi.dispatch_cycles(cls),
            reads=tuple(self._ready_slot(operand) for operand in instr.reads),
            reg_sources=sum(1 for s in instr.srcs if isinstance(s, (Reg, Pred))),
            srcs=tuple(srcs),
            target=self.program.labels[instr.target] if instr.op is Op.BRA else -1,
        )

    def _ready_slot(self, operand: Reg | Pred) -> int:
        """Index of ``operand``'s entry in ``_Warp.ready``."""
        if isinstance(operand, Reg):
            return operand.index
        return self._pred_base + operand.index

    def _build_warps(self) -> list[_Warp]:
        warp_size = self.fermi.warp_size
        coords = np.array(
            [self.program.geometry.unlinearize(t) for t in range(self.num_threads)],
            dtype=float,
        ).reshape(-1, 3)
        dims = self.program.geometry.block_dim + (1, 1)
        slots = self._pred_base + max(1, self.program.num_predicates)
        warps = []
        for start in range(0, self.num_threads, warp_size):
            stop = min(start + warp_size, self.num_threads)
            lanes = np.arange(start, stop)
            width = len(lanes)
            specials = {
                Special.TID_X: coords[start:stop, 0],
                Special.TID_Y: coords[start:stop, 1],
                Special.TID_Z: coords[start:stop, 2],
                Special.TID_LINEAR: lanes.astype(float),
                Special.NTID_X: np.full(width, float(dims[0])),
                Special.NTID_Y: np.full(width, float(dims[1])),
                Special.NTID_Z: np.full(width, float(dims[2])),
            }
            warps.append(
                _Warp(
                    warp_id=len(warps),
                    lanes=lanes,
                    span=slice(start, stop),
                    full_mask=_read_only(np.ones(width, dtype=bool)),
                    specials={k: _read_only(v.copy()) for k, v in specials.items()},
                    ready=[0] * slots,
                )
            )
        if len(warps) > self.fermi.max_resident_warps:
            raise GpgpuExecutionError(
                f"kernel needs {len(warps)} warps, the SM holds "
                f"{self.fermi.max_resident_warps}"
            )
        return warps

    # ------------------------------------------------------------------ driver
    def run(self) -> SimulationResult:
        cycle = 0
        rr_start = 0
        warps = self._warps
        count = len(warps)
        issue_limit = self.fermi.schedulers * self.fermi.issue_width_per_scheduler
        decoded = self._decoded
        pipe_free = self._pipe_free
        while self._live:
            if cycle > MAX_CYCLES:
                raise GpgpuExecutionError(
                    f"SIMT kernel '{self.program.name}' exceeded {MAX_CYCLES} cycles"
                )
            if self._waiting and self._waiting == self._live:
                self._release_barrier(cycle)
            # Round-robin from ``rr_start``; each warp is visited once, so
            # it issues at most one instruction per cycle.
            issued = 0
            position = rr_start % count
            for _ in range(count):
                warp = warps[position]
                position = position + 1 if position + 1 < count else 0
                if warp.done or warp.at_barrier or warp.next_free > cycle:
                    continue
                d = decoded[warp.pc]
                if pipe_free[d.pipe] > cycle:
                    continue
                # Scoreboard: every register the instruction reads is ready.
                ready = warp.ready
                for slot in d.reads:
                    if ready[slot] > cycle:
                        break
                else:
                    self._issue(warp, d, cycle)
                    issued += 1
                    if issued >= issue_limit:
                        break
            rr_start += 1
            if issued == 0:
                cycle = self._next_interesting_cycle(cycle)
            else:
                cycle += 1

        self.stats.cycles = cycle
        self.stats.extra["engine"] = "fermi"
        self.stats.extra.setdefault("cores", 1)
        return SimulationResult(
            cycles=cycle,
            stats=self.stats,
            memory=self.memory,
            outputs={},
            engine="fermi",
            cores=1,
            hierarchies=(self.hierarchy,),
        )

    def _next_interesting_cycle(self, cycle: int) -> int:
        """Skip idle cycles directly to the next scoreboard/barrier event."""
        decoded = self._decoded
        pipe_free = self._pipe_free
        future = []
        for warp in self._warps:
            if warp.done or warp.at_barrier:
                continue
            d = decoded[warp.pc]
            candidates = [warp.next_free, pipe_free[d.pipe]]
            candidates += [warp.ready[slot] for slot in d.reads]
            future += [c for c in candidates if c > cycle]
        if not future:
            return cycle + 1
        return min(future)

    # -------------------------------------------------------------- scheduling
    def _release_barrier(self, cycle: int) -> None:
        """Every live warp is parked at the barrier: release them all."""
        for warp in self._warps:
            if not warp.done:
                warp.at_barrier = False
                warp.next_free = cycle + 1
        self._waiting = 0

    # ------------------------------------------------------------------- issue
    def _issue(self, warp: _Warp, d: _Decoded, cycle: int) -> None:
        instr = d.instr
        warp.pc += 1
        warp.next_free = cycle + 1
        self._pipe_free[d.pipe] = cycle + d.dispatch
        stats = self.stats
        stats.instructions_issued += 1

        guard = instr.guard
        if guard is None:
            mask = warp.full_mask
            active_lanes = len(mask)
        else:
            values = self.predicates[guard.index, warp.span]
            mask = ~values if instr.guard_negated else values.copy()
            active_lanes = int(np.count_nonzero(mask))
        stats.instructions_per_lane += active_lanes
        stats.register_reads += active_lanes * d.reg_sources
        if instr.dst is not None:
            stats.register_writes += active_lanes

        op = instr.op
        if op is Op.EXIT:
            warp.done = True
            self._live -= 1
            return
        if op is Op.BAR_SYNC:
            warp.at_barrier = True
            self._waiting += 1
            stats.barrier_arrivals += len(warp.lanes)
            return
        if op is Op.BRA:
            self._execute_branch(warp, d, active_lanes)
            return
        if instr.is_memory:
            self._execute_memory(warp, d, mask, cycle)
            return
        self._execute_alu(warp, d, mask, cycle, active_lanes)

    # ---------------------------------------------------------------- operands
    def _operand(self, warp: _Warp, source: tuple[int, Any]) -> np.ndarray:
        """Per-lane values of one decoded source operand.

        Register reads are views into the register file and specials are
        shared read-only arrays: callers build new arrays from them and
        never write through them.
        """
        kind, payload = source
        if kind == _REG:
            return self.registers[payload, warp.span]
        if kind == _PRED:
            return self.predicates[payload, warp.span].astype(float)
        if kind == _IMM:
            return np.full(len(warp.lanes), payload)
        return warp.specials[payload]

    def _writeback(
        self, warp: _Warp, dst: Reg | Pred, values: np.ndarray, mask: np.ndarray, ready: int
    ) -> None:
        lanes = warp.span
        if mask is not warp.full_mask:
            lanes, values = warp.lanes[mask], values[mask]
        if isinstance(dst, Reg):
            self.registers[dst.index, lanes] = values
        else:
            self.predicates[dst.index, lanes] = values.astype(bool)
        warp.ready[self._ready_slot(dst)] = ready

    # --------------------------------------------------------------------- ALU
    def _execute_alu(
        self, warp: _Warp, d: _Decoded, mask: np.ndarray, cycle: int, active: int
    ) -> None:
        instr = d.instr
        srcs = [self._operand(warp, s) for s in d.srcs]
        if self._pipes[d.pipe] == "sfu":
            latency = self.fermi.sfu_latency
            self.stats.special_ops += active
        else:
            latency = self.fermi.alu_latency
            self.stats.alu_ops += active

        values = self._alu_result(instr.op, srcs)
        if instr.dst is not None:
            self._writeback(warp, instr.dst, values, mask, cycle + latency)

    def _alu_result(self, op: Op, srcs: list[np.ndarray]) -> np.ndarray:
        a = srcs[0] if srcs else None
        b = srcs[1] if len(srcs) > 1 else None
        c = srcs[2] if len(srcs) > 2 else None
        if op is Op.MOV:
            return a.copy()
        if op is Op.ADD:
            return a + b
        if op is Op.SUB:
            return a - b
        if op is Op.MUL:
            return a * b
        if op is Op.DIV:
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(b != 0, a / np.where(b == 0, 1, b), np.inf)
        if op is Op.MOD:
            return np.where(b != 0, np.fmod(a, np.where(b == 0, 1, b)), 0.0)
        if op is Op.MIN:
            return np.minimum(a, b)
        if op is Op.MAX:
            return np.maximum(a, b)
        if op in (Op.FMA, Op.MAD):
            return a * b + c
        if op is Op.NEG:
            return -a
        if op is Op.ABS:
            return np.abs(a)
        if op is Op.AND:
            return (a.astype(np.int64) & b.astype(np.int64)).astype(float)
        if op is Op.OR:
            return (a.astype(np.int64) | b.astype(np.int64)).astype(float)
        if op is Op.XOR:
            return (a.astype(np.int64) ^ b.astype(np.int64)).astype(float)
        if op is Op.SHL:
            return (a.astype(np.int64) << b.astype(np.int64)).astype(float)
        if op is Op.SHR:
            return (a.astype(np.int64) >> b.astype(np.int64)).astype(float)
        if op is Op.SQRT:
            return np.sqrt(np.maximum(a, 0.0))
        if op is Op.RSQRT:
            return 1.0 / np.sqrt(np.maximum(a, 1e-30))
        if op is Op.EXP:
            return np.exp(a)
        if op is Op.LOG:
            return np.log(np.maximum(a, 1e-30))
        if op is Op.RCP:
            return np.where(a != 0, 1.0 / np.where(a == 0, 1, a), np.inf)
        if op is Op.SETP_LT:
            return (a < b).astype(float)
        if op is Op.SETP_LE:
            return (a <= b).astype(float)
        if op is Op.SETP_GT:
            return (a > b).astype(float)
        if op is Op.SETP_GE:
            return (a >= b).astype(float)
        if op is Op.SETP_EQ:
            return (a == b).astype(float)
        if op is Op.SETP_NE:
            return (a != b).astype(float)
        if op is Op.PAND:
            return ((a != 0) & (b != 0)).astype(float)
        if op is Op.POR:
            return ((a != 0) | (b != 0)).astype(float)
        if op is Op.PNOT:
            return (a == 0).astype(float)
        if op is Op.SEL:
            return np.where(a != 0, b, c)
        raise GpgpuExecutionError(f"unhandled ALU opcode {op.value}")

    # ------------------------------------------------------------------ memory
    def _execute_memory(
        self, warp: _Warp, d: _Decoded, mask: np.ndarray, cycle: int
    ) -> None:
        instr = d.instr
        op = instr.op
        name = instr.array
        spec = self.program.arrays.get(name)
        is_store = op in (Op.ST_GLOBAL, Op.ST_SHARED)
        full = mask is warp.full_mask
        indices = self._operand(warp, d.srcs[0]).astype(np.int64)
        active = indices if full else indices[mask]
        # Check every active lane before indexing: NumPy would silently wrap
        # a negative index, and a store must leave memory untouched.
        bad = (active < 0) | (active >= spec.length)
        if bad.any():
            raise out_of_bounds("store" if is_store else "load", spec, int(active[bad.argmax()]))
        addresses = (spec.base_address + active * spec.elem_bytes).tolist()

        if op in (Op.LD_SHARED, Op.ST_SHARED):
            complete = self.hierarchy.scratch_access_group(addresses, is_store, cycle)
        else:
            # Global memory: coalesce the active lanes into line transactions
            # (``None`` marks an inactive lane).
            if not full:
                per_lane: list[int | None] = [None] * len(mask)
                for lane, address in zip(np.flatnonzero(mask).tolist(), addresses):
                    per_lane[lane] = address
                addresses = per_lane
            access = AccessType.STORE if is_store else AccessType.LOAD
            complete, transactions = self.hierarchy.access_group(addresses, access, cycle)
            self.stats.extra["global_transactions"] = (
                self.stats.extra.get("global_transactions", 0) + transactions
            )

        backing = self.memory.array(name)
        count = len(active)
        if is_store:
            values = self._operand(warp, d.srcs[1])
            backing[active] = values if full else values[mask]
            if op is Op.ST_SHARED:
                self.stats.scratch_stores += count
            else:
                self.stats.global_stores += count
            return
        loaded = np.zeros(len(mask))
        loaded[mask] = backing[active]
        if op is Op.LD_SHARED:
            self.stats.scratch_loads += count
        else:
            self.stats.global_loads += count
        self._writeback(warp, instr.dst, loaded, mask, complete)

    # ----------------------------------------------------------------- control
    def _execute_branch(self, warp: _Warp, d: _Decoded, active: int) -> None:
        """Branches are warp-uniform: every lane or none must take them."""
        width = len(warp.lanes)
        if 0 < active < width:
            raise GpgpuExecutionError(
                f"divergent branch at pc {warp.pc - 1} in '{self.program.name}'; "
                "baseline kernels must use predication for lane-divergent control"
            )
        if active == width:
            warp.pc = d.target


def run_fermi(
    program: SimtProgram,
    inputs: Mapping[str, np.ndarray] | None = None,
    config: SystemConfig | None = None,
) -> SimulationResult:
    """Convenience wrapper: run ``program`` on the Fermi baseline model."""
    return FermiSimulator(program, inputs=inputs, config=config).run()
