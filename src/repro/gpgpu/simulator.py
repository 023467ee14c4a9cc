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

A run is two passes, the functional/performance split of GPGPU-Sim.  The
**value pass** runs the block one barrier phase at a time: each step
executes the lowest pc any running warp holds, over the lanes of every
warp at that pc, as one NumPy operation on the register file.  It records
each warp's dynamic pc sequence and, per memory instruction, only what
the timing needs (the coalesced line addresses of a global access, the
distinct-word count per bank of a shared one), and it sums every counter
that does not depend on the interleaving.  Values cannot depend on the
interleaving either: two warps touching one word in one barrier phase,
at least one of them storing, is a race and raises.  The **timing pass**
replays those per-warp streams through the round-robin schedulers, the
scoreboard, the execution pipes, the cache hierarchy and the scratchpad
banks, with no lane arithmetic.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from repro.config.system import SystemConfig, default_system_config
from repro.errors import GpgpuExecutionError
from repro.gpgpu.isa import Imm, Instruction, Op, Pred, Reg, Special
from repro.gpgpu.program import SimtProgram
from repro.graph.interthread import unlinearize
from repro.kernel.arrays import ArraySpec
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage, out_of_bounds
from repro.memory.request import AccessType
from repro.sim.result import MAX_CYCLES, SimulationResult
from repro.sim.stats import ExecutionStats

__all__ = ["FermiSimulator", "run_fermi"]

# What an instruction does, as far as either pass cares.
_ALU, _LD_GLOBAL, _ST_GLOBAL, _LD_SHARED, _ST_SHARED, _BRA, _BAR, _EXIT = range(8)
_KIND = {
    Op.LD_GLOBAL: _LD_GLOBAL,
    Op.ST_GLOBAL: _ST_GLOBAL,
    Op.LD_SHARED: _LD_SHARED,
    Op.ST_SHARED: _ST_SHARED,
    Op.BRA: _BRA,
    Op.BAR_SYNC: _BAR,
    Op.EXIT: _EXIT,
}
# Source-operand kinds of ``_Decoded.srcs``.
_REG, _PRED, _IMM, _SPECIAL = range(4)
#: "Never": the ready cycle of a warp that is done or parked at a barrier.
_NEVER = float("inf")


def _int_op(fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Callable:
    return lambda a, b, c: fn(a.astype(np.int64), b.astype(np.int64)).astype(float)


def _divide(a: np.ndarray, b: np.ndarray, c: Any) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b != 0, a / np.where(b == 0, 1, b), np.inf)


#: Lane arithmetic of every ALU/SFU opcode, over sources ``a``, ``b``, ``c``.
_ALU_OPS: dict[Op, Callable[[Any, Any, Any], np.ndarray]] = {
    Op.MOV: lambda a, b, c: a.copy(),
    Op.ADD: lambda a, b, c: a + b,
    Op.SUB: lambda a, b, c: a - b,
    Op.MUL: lambda a, b, c: a * b,
    Op.DIV: _divide,
    Op.MOD: lambda a, b, c: np.where(b != 0, np.fmod(a, np.where(b == 0, 1, b)), 0.0),
    Op.MIN: lambda a, b, c: np.minimum(a, b),
    Op.MAX: lambda a, b, c: np.maximum(a, b),
    Op.FMA: lambda a, b, c: a * b + c,
    Op.MAD: lambda a, b, c: a * b + c,
    Op.NEG: lambda a, b, c: -a,
    Op.ABS: lambda a, b, c: np.abs(a),
    Op.AND: _int_op(np.bitwise_and),
    Op.OR: _int_op(np.bitwise_or),
    Op.XOR: _int_op(np.bitwise_xor),
    Op.SHL: _int_op(np.left_shift),
    Op.SHR: _int_op(np.right_shift),
    Op.SQRT: lambda a, b, c: np.sqrt(np.maximum(a, 0.0)),
    Op.RSQRT: lambda a, b, c: 1.0 / np.sqrt(np.maximum(a, 1e-30)),
    Op.EXP: lambda a, b, c: np.exp(a),
    Op.LOG: lambda a, b, c: np.log(np.maximum(a, 1e-30)),
    Op.RCP: lambda a, b, c: np.where(a != 0, 1.0 / np.where(a == 0, 1, a), np.inf),
    Op.SETP_LT: lambda a, b, c: (a < b).astype(float),
    Op.SETP_LE: lambda a, b, c: (a <= b).astype(float),
    Op.SETP_GT: lambda a, b, c: (a > b).astype(float),
    Op.SETP_GE: lambda a, b, c: (a >= b).astype(float),
    Op.SETP_EQ: lambda a, b, c: (a == b).astype(float),
    Op.SETP_NE: lambda a, b, c: (a != b).astype(float),
    Op.PAND: lambda a, b, c: ((a != 0) & (b != 0)).astype(float),
    Op.POR: lambda a, b, c: ((a != 0) | (b != 0)).astype(float),
    Op.PNOT: lambda a, b, c: (a == 0).astype(float),
    Op.SEL: lambda a, b, c: np.where(a != 0, b, c),
}


class _Decoded(NamedTuple):
    """The static facts of one instruction that the two passes use.

    Built once per run from the program, so neither pass re-derives them.
    """

    instr: Instruction
    kind: int
    #: Index of the instruction's execution pipe (its latency class).
    pipe: int
    #: Cycles the instruction occupies its pipe (``FermiConfig.dispatch_cycles``).
    dispatch: int
    #: Scoreboard slots the instruction waits on (sources + guard).
    reads: tuple[int, ...]
    #: Scoreboard slot of the destination, or ``-1``.
    write: int
    #: Cycles from issue to an ALU/SFU result (0 for other kinds).
    latency: int
    #: Register-file reads per active lane (``Reg``/``Pred`` source operands).
    reg_sources: int
    #: ``(kind, payload)`` per source operand; see :meth:`FermiSimulator._operand`.
    srcs: tuple[tuple[int, Any], ...]
    #: Branch target pc, or ``-1``.
    target: int
    #: The memory instruction's array, or ``None``.
    spec: ArraySpec | None


class _Group(NamedTuple):
    """The lanes of a set of warps that run one value-pass step together."""

    #: Column index into the register file: a slice when the warps are
    #: contiguous, else the thread IDs.
    lanes: slice | np.ndarray
    #: The thread IDs of ``lanes``.
    tids: np.ndarray
    #: Offset of each warp's first lane within the group.
    offsets: np.ndarray
    #: Lanes per warp.
    widths: list[int]
    #: The group-local warp index (0..len-1) of every lane.
    seg: np.ndarray
    #: The warp ID of every lane.
    warp_of: np.ndarray


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
        # 4 SFUs), which bounds per-class instruction throughput.  One pipe
        # per latency class, indexed by ``_Decoded.pipe``.
        self._pipes: list[str] = []
        # Scoreboard slots hold the registers, then the predicates.
        self._pred_base = max(1, program.num_registers)
        self._slots = self._pred_base + max(1, program.num_predicates)
        self._decoded = [self._decode(instr) for instr in program.instructions]
        self._warp_bounds = self._build_warps()
        self._specials = self._special_values()
        self._groups: dict[tuple[int, ...], _Group] = {}

    # ------------------------------------------------------------------ setup
    def _decode(self, instr: Instruction) -> _Decoded:
        cls = instr.latency_class
        if cls not in self._pipes:
            self._pipes.append(cls)
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
        kind = _KIND.get(instr.op, _ALU)
        latency = 0
        if kind == _ALU:
            latency = self.fermi.sfu_latency if cls == "sfu" else self.fermi.alu_latency
        return _Decoded(
            instr=instr,
            kind=kind,
            pipe=self._pipes.index(cls),
            dispatch=self.fermi.dispatch_cycles(cls),
            reads=tuple(self._ready_slot(operand) for operand in instr.reads),
            write=-1 if instr.dst is None else self._ready_slot(instr.dst),
            latency=latency,
            reg_sources=sum(1 for s in instr.srcs if isinstance(s, (Reg, Pred))),
            srcs=tuple(srcs),
            target=self.program.labels[instr.target] if instr.op is Op.BRA else -1,
            spec=self.program.arrays.get(instr.array) if instr.is_memory else None,
        )

    def _ready_slot(self, operand: Reg | Pred) -> int:
        """Index of ``operand``'s scoreboard slot."""
        if isinstance(operand, Reg):
            return operand.index
        return self._pred_base + operand.index

    def _build_warps(self) -> list[tuple[int, int]]:
        """The ``(first, stop)`` thread IDs of each warp."""
        warp_size = self.fermi.warp_size
        bounds = [
            (start, min(start + warp_size, self.num_threads))
            for start in range(0, self.num_threads, warp_size)
        ]
        if len(bounds) > self.fermi.max_resident_warps:
            raise GpgpuExecutionError(
                f"kernel needs {len(bounds)} warps, the SM holds "
                f"{self.fermi.max_resident_warps}"
            )
        return bounds

    def _special_values(self) -> dict[Special, np.ndarray]:
        """Per-thread value of every ``Special`` register (read-only)."""
        tids = np.arange(self.num_threads)
        x, y, z = unlinearize(tids, self.program.geometry.block_dim)
        dims = self.program.geometry.block_dim + (1, 1)
        specials = {
            Special.TID_X: x.astype(float),
            Special.TID_Y: y.astype(float),
            Special.TID_Z: z.astype(float),
            Special.TID_LINEAR: tids.astype(float),
            Special.NTID_X: np.full(self.num_threads, float(dims[0])),
            Special.NTID_Y: np.full(self.num_threads, float(dims[1])),
            Special.NTID_Z: np.full(self.num_threads, float(dims[2])),
        }
        for values in specials.values():
            values.setflags(write=False)
        return specials

    def _group(self, warps: tuple[int, ...]) -> _Group:
        group = self._groups.get(warps)
        if group is None:
            bounds = [self._warp_bounds[w] for w in warps]
            widths = [stop - start for start, stop in bounds]
            if warps[-1] - warps[0] + 1 == len(warps):
                lanes: slice | np.ndarray = slice(bounds[0][0], bounds[-1][1])
                tids = np.arange(bounds[0][0], bounds[-1][1])
            else:
                tids = np.concatenate([np.arange(start, stop) for start, stop in bounds])
                lanes = tids
            group = _Group(
                lanes=lanes,
                tids=tids,
                offsets=np.cumsum([0] + widths[:-1]),
                widths=widths,
                seg=np.repeat(np.arange(len(warps)), widths),
                warp_of=np.repeat(np.array(warps), widths),
            )
            self._groups[warps] = group
        return group

    # ------------------------------------------------------------------ driver
    def run(self) -> SimulationResult:
        streams, payloads = self._value_pass()
        cycle = self._time(streams, payloads)
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

    # ------------------------------------------------------------- value pass
    def _value_pass(self) -> tuple[list[list[int]], list[list[Any]]]:
        """Run the block's values; return each warp's pc stream and the
        timing inputs of its memory instructions, in program order."""
        count = len(self._warp_bounds)
        pcs = [0] * count
        streams: list[list[int]] = [[] for _ in range(count)]
        payloads: list[list[Any]] = [[] for _ in range(count)]
        running = list(range(count))  # in warp order
        parked: list[int] = []  # at the barrier
        phase: list[tuple[str, np.ndarray, np.ndarray, bool]] = []
        steps = 0
        while True:
            if not running:
                self._check_races(phase)
                if not parked:
                    return streams, payloads
                running, parked, phase = sorted(parked), [], []
                continue
            pc = min(pcs[w] for w in running)
            warps = tuple(w for w in running if pcs[w] == pc)
            steps += 1
            if steps > MAX_CYCLES and max(map(len, streams)) >= MAX_CYCLES:
                raise GpgpuExecutionError(
                    f"SIMT kernel '{self.program.name}' exceeded {MAX_CYCLES} cycles"
                )
            for w in warps:
                streams[w].append(pc)
            d = self._decoded[pc]
            kind = d.kind
            group = self._group(warps)
            nxt = self._step(d, pc, group, phase, payloads, warps)
            if kind == _EXIT or kind == _BAR:
                running = [w for w in running if pcs[w] != pc]
                if kind == _BAR:
                    parked.extend(warps)
                    for w in warps:
                        pcs[w] = pc + 1
            elif nxt is None:
                for w in warps:
                    pcs[w] = pc + 1
            else:
                for w, target in zip(warps, nxt):
                    pcs[w] = target

    def _step(
        self,
        d: _Decoded,
        pc: int,
        group: _Group,
        phase: list[tuple[str, np.ndarray, np.ndarray, bool]],
        payloads: list[list[Any]],
        warps: tuple[int, ...],
    ) -> list[int] | None:
        """Execute instruction ``d`` over ``group``; return each warp's
        next pc after a branch, else ``None`` (fall through)."""
        instr = d.instr
        lanes = group.lanes
        width = len(group.tids)
        guard = instr.guard
        if guard is None:
            mask = None
            active = width
        else:
            values = self.predicates[guard.index, lanes]
            mask = ~values if instr.guard_negated else values.copy()
            active = int(np.count_nonzero(mask))
        stats = self.stats
        stats.instructions_issued += len(warps)
        stats.instructions_per_lane += active
        stats.register_reads += active * d.reg_sources
        if instr.dst is not None:
            stats.register_writes += active

        kind = d.kind
        if kind == _EXIT:
            return None
        if kind == _BAR:
            stats.barrier_arrivals += width
            return None
        if kind == _BRA:
            if mask is None:
                return [d.target] * len(warps)
            taken = np.add.reduceat(mask, group.offsets).tolist()
            nxt = []
            for w, lanes_taken, lanes_in in zip(warps, taken, group.widths):
                if 0 < lanes_taken < lanes_in:
                    raise GpgpuExecutionError(
                        f"divergent branch at pc {pc} in '{self.program.name}'; "
                        "baseline kernels must use predication for lane-divergent control"
                    )
                nxt.append(d.target if lanes_taken else pc + 1)
            return nxt
        if kind == _ALU:
            fn = _ALU_OPS.get(instr.op)
            if fn is None:
                raise GpgpuExecutionError(f"unhandled ALU opcode {instr.op.value}")
            srcs = [self._operand(s, lanes, width) for s in d.srcs]
            srcs += [None] * (3 - len(srcs))
            if self._pipes[d.pipe] == "sfu":
                stats.special_ops += active
            else:
                stats.alu_ops += active
            if instr.dst is not None:
                self._write(instr.dst, group, fn(*srcs[:3]), mask)
            return None
        self._memory(d, group, mask, phase, payloads, warps)
        return None

    def _operand(
        self, source: tuple[int, Any], lanes: slice | np.ndarray, width: int
    ) -> np.ndarray:
        """Per-lane values of one decoded source operand.

        Register reads may be views into the register file and specials
        are read-only: callers build new arrays from them and never write
        through them.
        """
        kind, payload = source
        if kind == _REG:
            return self.registers[payload, lanes]
        if kind == _PRED:
            return self.predicates[payload, lanes].astype(float)
        if kind == _IMM:
            return np.full(width, payload)
        return self._specials[payload][lanes]

    def _write(
        self, dst: Reg | Pred, group: _Group, values: np.ndarray, mask: np.ndarray | None
    ) -> None:
        lanes = group.lanes
        if mask is not None:
            lanes, values = group.tids[mask], values[mask]
        if isinstance(dst, Reg):
            self.registers[dst.index, lanes] = values
        else:
            self.predicates[dst.index, lanes] = values.astype(bool)

    def _memory(
        self,
        d: _Decoded,
        group: _Group,
        mask: np.ndarray | None,
        phase: list[tuple[str, np.ndarray, np.ndarray, bool]],
        payloads: list[list[Any]],
        warps: tuple[int, ...],
    ) -> None:
        kind = d.kind
        spec = d.spec
        is_store = kind == _ST_GLOBAL or kind == _ST_SHARED
        width = len(group.tids)
        indices = self._operand(d.srcs[0], group.lanes, width).astype(np.int64)
        active = indices if mask is None else indices[mask]
        # Check every active lane before indexing: NumPy would silently wrap
        # a negative index, and a store must leave memory untouched.
        bad = (active < 0) | (active >= spec.length)
        if bad.any():
            raise out_of_bounds("store" if is_store else "load", spec, int(active[bad.argmax()]))
        seg = group.seg if mask is None else group.seg[mask]
        phase.append(
            (spec.name, active, group.warp_of if mask is None else group.warp_of[mask], is_store)
        )
        addresses = spec.base_address + active * spec.elem_bytes
        if kind == _LD_SHARED or kind == _ST_SHARED:
            per_warp = self._bank_counts(addresses, seg, len(warps))
        else:
            per_warp = self._lines(addresses, seg, len(warps))
        for w, payload in zip(warps, per_warp):
            payloads[w].append(payload)

        stats = self.stats
        backing = self.memory.array(spec.name)
        count = len(active)
        if is_store:
            values = self._operand(d.srcs[1], group.lanes, width)
            backing[active] = values if mask is None else values[mask]
            if kind == _ST_SHARED:
                stats.scratch_stores += count
            else:
                stats.global_stores += count
            return
        if kind == _LD_SHARED:
            stats.scratch_loads += count
        else:
            stats.global_loads += count
        loaded = np.zeros(width)
        if mask is None:
            loaded[:] = backing[active]
        else:
            loaded[mask] = backing[active]
        self._write(d.instr.dst, group, loaded, mask)

    def _lines(self, addresses: np.ndarray, seg: np.ndarray, warps: int) -> list[list[int]]:
        """Each warp's coalesced global access: its sorted distinct line
        addresses."""
        line_bytes = self.config.memory.l1.line_bytes
        if addresses.size == 0:
            per_warp: list[list[int]] = [[] for _ in range(warps)]
        else:
            owner, lines = _distinct_per_warp(addresses // line_bytes, seg)
            sizes = np.bincount(owner, minlength=warps).tolist()
            per_warp = _split((lines * line_bytes).tolist(), sizes)
        extra = self.stats.extra
        extra["global_transactions"] = extra.get("global_transactions", 0) + sum(
            map(len, per_warp)
        )
        return per_warp

    def _bank_counts(
        self, addresses: np.ndarray, seg: np.ndarray, warps: int
    ) -> list[tuple[list[int], list[int]]]:
        """Each warp's shared access: ``(banks, distinct words per bank)``.

        Lanes touching one word are a broadcast and count once."""
        pad = self.hierarchy.scratchpad
        banks = pad.config.banks
        if addresses.size == 0:
            return [([], [])] * warps
        owner, words = _distinct_per_warp(addresses // pad.word_bytes, seg)
        per_bank = np.bincount(owner * banks + words % banks, minlength=warps * banks)
        rows, cols = np.nonzero(per_bank.reshape(warps, banks))
        sizes = np.bincount(rows, minlength=warps).tolist()
        counts = per_bank[rows * banks + cols].tolist()
        return list(zip(_split(cols.tolist(), sizes), _split(counts, sizes)))

    def _check_races(self, phase: list[tuple[str, np.ndarray, np.ndarray, bool]]) -> None:
        """Raise if two warps touched one word in the barrier phase just
        ended and at least one of them stored to it.

        The round-robin timing would otherwise silently pick the winner.
        """
        stored = {name for name, _, _, is_store in phase if is_store}
        count = len(self._warp_bounds)
        for name in sorted(stored):
            accesses = [a for a in phase if a[0] == name]
            words = np.concatenate([a[1] for a in accesses])
            warps = np.concatenate([a[2] for a in accesses])
            # One entry per distinct (word, warp), sorted by word.
            touched = _distinct(words * count + warps) // count
            shared = touched[1:][touched[1:] == touched[:-1]]
            if not shared.size:
                continue
            writes = np.concatenate([a[1] for a in accesses if a[3]])
            racy = shared[np.isin(shared, writes)]
            if racy.size:
                word = int(racy[0])
                involved = sorted(set(warps[words == word].tolist()))
                raise GpgpuExecutionError(
                    f"race in '{self.program.name}': warps {involved} access "
                    f"{name}[{word}] in one barrier phase and at least one stores to it"
                )

    # ------------------------------------------------------------ timing pass
    def _time(self, streams: list[list[int]], payloads: list[list[Any]]) -> int:
        """Replay the warps' streams through the schedulers, the scoreboard,
        the execution pipes and the memory models; return the cycle count.

        Each warp keeps the cycle its next instruction's operands are ready
        (known at issue, when the writebacks' cycles are), so the
        round-robin visit is one comparison per warp.
        """
        table = [(d.kind, d.pipe, d.dispatch, d.reads, d.write, d.latency) for d in self._decoded]
        hierarchy = self.hierarchy
        scratchpad = hierarchy.scratchpad
        count = len(streams)
        issue_limit = self.fermi.schedulers * self.fermi.issue_width_per_scheduler
        # The visit order of each round-robin start.
        rotations = [list(range(start, count)) + list(range(start)) for start in range(count)]
        pipe_free = [0] * len(self._pipes)
        scoreboard = [[0] * self._slots for _ in range(count)]
        heads = [table[stream[0]] for stream in streams]  # each warp's next instruction
        position = [0] * count  # index of that instruction in the warp's stream
        next_mem = [0] * count  # index of the warp's next memory payload
        next_free = [0] * count
        ready_at: list[float] = [0] * count
        live = count
        parked: list[int] = []
        load, store = AccessType.LOAD, AccessType.STORE

        cycle = 0
        rr_start = 0
        while live:
            if cycle > MAX_CYCLES:
                raise GpgpuExecutionError(
                    f"SIMT kernel '{self.program.name}' exceeded {MAX_CYCLES} cycles"
                )
            if parked and len(parked) == live:
                # Every live warp is parked at the barrier: release them all.
                for warp in parked:
                    next_free[warp] = cycle + 1
                    ready_at[warp] = _ready(cycle + 1, scoreboard[warp], heads[warp][3])
                parked = []
            # Round-robin from ``rr_start``; each warp is visited once, so
            # it issues at most one instruction per cycle.
            issued = 0
            for warp in rotations[rr_start % count]:
                if ready_at[warp] > cycle:
                    continue
                kind, pipe, dispatch, _, write, latency = heads[warp]
                if pipe_free[pipe] > cycle:
                    continue
                index = position[warp] + 1
                position[warp] = index
                next_free[warp] = cycle + 1
                pipe_free[pipe] = cycle + dispatch
                issued += 1
                if kind == _EXIT:
                    live -= 1
                    ready_at[warp] = _NEVER
                else:
                    heads[warp] = head = table[streams[warp][index]]
                    board = scoreboard[warp]
                    if kind == _ALU:
                        if write >= 0:
                            board[write] = cycle + latency
                    elif kind == _BAR:
                        parked.append(warp)
                    elif kind != _BRA:
                        payload = payloads[warp][next_mem[warp]]
                        next_mem[warp] += 1
                        if kind == _LD_GLOBAL:
                            board[write] = hierarchy.access_group(payload, load, cycle)
                        elif kind == _ST_GLOBAL:
                            hierarchy.access_group(payload, store, cycle)
                        elif kind == _LD_SHARED:
                            board[write] = scratchpad.access_group(*payload, False, cycle)
                        else:
                            scratchpad.access_group(*payload, True, cycle)
                    ready_at[warp] = _NEVER if kind == _BAR else _ready(cycle + 1, board, head[3])
                if issued >= issue_limit:
                    break
            rr_start += 1
            if issued == 0:
                cycle = _next_event(cycle, heads, next_free, ready_at, pipe_free, scoreboard)
            else:
                cycle += 1
        return cycle


def _next_event(
    cycle: int,
    heads: list[tuple],
    next_free: list[int],
    ready_at: list[float],
    pipe_free: list[int],
    scoreboard: list[list[int]],
) -> int:
    """Skip idle cycles to the next cycle at which some waiting warp's
    issue slot, pipe or operand frees up (``cycle + 1`` if none does)."""
    best: float = _NEVER
    for warp, at in enumerate(ready_at):
        if at == _NEVER:
            continue
        _, pipe, _, reads, _, _ = heads[warp]
        board = scoreboard[warp]
        for candidate in (next_free[warp], pipe_free[pipe], *(board[s] for s in reads)):
            if cycle < candidate < best:
                best = candidate
    return cycle + 1 if best == _NEVER else int(best)


def _ready(free: int, board: list[int], reads: tuple[int, ...]) -> int:
    """The cycle an instruction reading ``reads`` can issue, from a warp
    whose issue slot frees at ``free``."""
    for slot in reads:
        if board[slot] > free:
            free = board[slot]
    return free


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct elements of an integer array."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _distinct_per_warp(values: np.ndarray, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(seg, value)`` pairs of non-negative ``values``,
    sorted, as a ``seg`` array and a ``value`` array."""
    span = int(values.max()) + 1
    keys = _distinct(seg * span + values)
    owner = keys // span
    return owner, keys - owner * span


def _split(flat: list, sizes: list[int]) -> list[list]:
    """``flat`` cut into consecutive runs of ``sizes``."""
    out, start = [], 0
    for size in sizes:
        out.append(flat[start : start + size])
        start += size
    return out


def run_fermi(
    program: SimtProgram,
    inputs: Mapping[str, np.ndarray] | None = None,
    config: SystemConfig | None = None,
) -> SimulationResult:
    """Convenience wrapper: run ``program`` on the Fermi baseline model."""
    return FermiSimulator(program, inputs=inputs, config=config).run()
