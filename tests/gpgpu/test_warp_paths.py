"""Pins for Fermi kernels whose warps take different warp-uniform paths.

Every registry kernel runs all of its warps down one pc path, so the
golden table never exercises warps that sit at different pcs at once.
These kernels do: a loop whose trip count comes from the warp index,
warps that exit before a barrier the others reach, and lane-predicated
loads and stores under per-warp branches.  Each block ends in a partial
warp.

The pins (cycles, the full ``counters()`` and every array's digest) are
a recorded measurement.  Regenerate them only for an intended model
change, and say why in the change::

    PYTHONPATH=src python tests/gpgpu/test_warp_paths.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gpgpu.isa import Imm, Instruction, Op, Reg
from repro.gpgpu.program import SimtProgram, SimtProgramBuilder
from repro.gpgpu.simulator import run_fermi
from repro.harness.experiments import outputs_digest

PIN_PATH = Path(__file__).with_name("warp_paths_pin.json")

#: Threads per block: four full warps and a 16-lane partial one.
N = 144
MAX_TRIPS = N // 32 + 1


def _warp_index(b: SimtProgramBuilder, tid: Reg) -> Reg:
    """``tid // 32`` (a right shift, as CUDA would compute it)."""
    warp = b.reg()
    b.emit(Instruction(Op.SHR, dst=warp, srcs=(tid, Imm(5))))
    return warp


def warp_trip_loop() -> SimtProgram:
    """Warp ``w`` runs its loop ``w + 1`` times, then the block swaps the
    sums through shared memory."""
    b = SimtProgramBuilder("warp_trip_loop", N)
    b.global_array("x", N * MAX_TRIPS)
    b.global_array("out", N)
    b.shared_array("tile", N)
    tid = b.tid_linear()
    trips = b.add(_warp_index(b, tid), Imm(1))
    acc = b.mov(Imm(0.0))
    i = b.mov(Imm(0))
    b.label("loop")
    v = b.ld_global("x", b.mad(i, Imm(N), tid))
    b.fma(v, Imm(0.5), acc, dst=acc)
    b.add(i, Imm(1), dst=i)
    b.branch("loop", guard=b.setp(Op.SETP_LT, i, trips))
    b.st_shared("tile", tid, acc)
    b.barrier()
    other = b.ld_shared("tile", b.mod(b.add(tid, Imm(32)), Imm(N)))
    b.st_global("out", tid, b.add(other, b.sqrt(acc)))
    return b.finish()


def early_exit() -> SimtProgram:
    """Odd warps exit before the barriers that the even warps reach; the
    even warps then exchange values among themselves."""
    b = SimtProgramBuilder("early_exit", N)
    b.global_array("x", N)
    b.global_array("out", N)
    b.global_array("swapped", N)
    b.shared_array("tile", N)
    tid = b.tid_linear()
    warp = _warp_index(b, tid)
    odd = b.setp(Op.SETP_EQ, b.mod(warp, Imm(2)), Imm(1))
    v = b.ld_global("x", tid)
    b.st_global("out", tid, b.mul(v, Imm(2.0)))
    b.branch("quit", guard=odd)
    b.st_shared("tile", tid, v)
    b.barrier()
    # Even warps 0, 2 and the partial warp 4 read each other's rows.
    partner = b.mod(b.add(tid, Imm(64)), Imm(N))
    partner_odd = b.setp(Op.SETP_EQ, b.mod(_warp_index(b, partner), Imm(2)), Imm(1))
    r = b.ld_shared("tile", partner, guard=partner_odd, guard_negated=True)
    b.barrier()
    b.st_shared("tile", tid, b.add(r, Imm(1.0)))
    b.barrier()
    b.st_global("swapped", tid, b.ld_shared("tile", tid))
    b.label("quit")
    b.exit()
    return b.finish()


def predicated_memory() -> SimtProgram:
    """Lane-predicated global and shared loads and stores, with warp 1
    branching around a block of them."""
    b = SimtProgramBuilder("predicated_memory", N)
    b.global_array("x", N)
    b.global_array("y", N)
    b.global_array("out", N)
    b.global_array("side", N)
    b.shared_array("tile", N)
    tid = b.tid_linear()
    warp = _warp_index(b, tid)
    lane = b.mod(tid, Imm(32))
    even = b.setp(Op.SETP_EQ, b.mod(tid, Imm(2)), Imm(0))
    v = b.ld_global("x", tid, guard=even)
    u = b.ld_global("y", tid, guard=even, guard_negated=True)
    s = b.add(v, u)
    b.st_shared("tile", tid, s, guard=even)
    b.st_shared("tile", tid, b.neg(s), guard=even, guard_negated=True)
    b.branch("join", guard=b.setp(Op.SETP_EQ, warp, Imm(1)))
    low = b.setp(Op.SETP_LT, lane, Imm(8))
    b.st_global("side", tid, b.mul(s, Imm(3.0)), guard=low)
    b.label("join")
    b.barrier()
    low = b.setp(Op.SETP_LT, lane, Imm(16))
    r = b.ld_shared("tile", b.mod(b.add(tid, Imm(1)), Imm(N)), guard=low)
    b.st_global("out", tid, r, guard=low)
    b.st_global("out", tid, s, guard=low, guard_negated=True)
    return b.finish()


KERNELS = {k.__name__: k for k in (warp_trip_loop, early_exit, predicated_memory)}


def _inputs(program: SimtProgram) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {
        name: rng.uniform(0.0, 4.0, program.arrays.get(name).length)
        for name in ("x", "y")
        if name in program.arrays
    }


def _measure(name: str) -> dict:
    program = KERNELS[name]()
    result = run_fermi(program, _inputs(program))
    return {
        "cycles": result.cycles,
        "counters": result.counters(),
        "array_digests": {
            array: outputs_digest({array: result.memory.array(array)})
            for array in result.memory.names()
        },
    }


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_warp_paths_match_pin(name):
    expected = json.loads(PIN_PATH.read_text())[name]
    assert _measure(name) == expected


def test_warps_really_take_different_paths():
    # Warp w's loop body (one load) runs w + 1 times: 1+2+3+4+5 warp loads.
    counters = _measure("warp_trip_loop")["counters"]
    assert counters["global_loads"] == 32 * (1 + 2 + 3 + 4) + 16 * 5
    # Only the three even warps (two full, one partial) reach the barriers.
    counters = _measure("early_exit")["counters"]
    assert counters["barrier_arrivals"] == 3 * (32 + 32 + 16)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_warp_paths.py --regenerate")
    table = {name: _measure(name) for name in sorted(KERNELS)}
    PIN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} kernels to {PIN_PATH}")
