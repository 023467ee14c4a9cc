"""Tests for the Fermi SIMT baseline: ISA, programs, simulator."""

import numpy as np
import pytest

from repro.errors import GpgpuExecutionError, IsaError, MemoryModelError
from repro.gpgpu.isa import Imm, Instruction, Op, Pred, Reg
from repro.gpgpu.program import SimtProgram, SimtProgramBuilder
from repro.gpgpu.simulator import FermiSimulator, run_fermi
from repro.sim import SimulationResult


# ---------------------------------------------------------------------- ISA
def test_instruction_validation():
    with pytest.raises(IsaError):
        Instruction(Op.LD_GLOBAL, dst=Reg(0), srcs=(Reg(1),))  # missing array
    with pytest.raises(IsaError):
        Instruction(Op.BRA)  # missing target
    with pytest.raises(IsaError):
        Instruction(Op.SETP_LT, dst=Reg(0), srcs=(Reg(1), Reg(2)))  # dst not a pred


def test_program_requires_defined_labels_and_exit():
    b = SimtProgramBuilder("p", 32)
    b.branch("nowhere")
    with pytest.raises(IsaError):
        b.finish()


def test_label_past_the_last_instruction_is_rejected():
    # Branching to "end" would run past the program instead of exiting.
    b = SimtProgramBuilder("fall", 32)
    b.branch("end")
    b.exit()
    b.label("end")
    with pytest.raises(IsaError, match="label 'end'"):
        b.finish()


@pytest.mark.parametrize(
    "last",
    [
        lambda: Instruction(Op.MOV, dst=Reg(0), srcs=(Imm(1),)),
        lambda: Instruction(Op.EXIT, guard=Pred(0)),
        lambda: Instruction(Op.BRA, target="top", guard=Pred(0), guard_negated=True),
    ],
    ids=["mov", "guarded-exit", "guarded-bra"],
)
def test_program_must_end_in_an_unguarded_transfer(last):
    b = SimtProgramBuilder("tail", 32)
    # A guarded exit is already rejected as an instruction.
    with pytest.raises(IsaError, match="last instruction|cannot be guarded"):
        instructions = [Instruction(Op.EXIT), last()]
        SimtProgram("tail", b.geometry, instructions, {"top": 0}, b.arrays, 1, 1)


@pytest.mark.parametrize("op", [Op.EXIT, Op.BAR_SYNC], ids=["exit", "bar.sync"])
def test_guarded_exit_and_barrier_are_rejected(op):
    """``@(tid < 0) exit; st.global out[tid] = 1`` must not build: the
    simulator would retire every warp at the exit and leave ``out`` zero
    (and park every warp at a guarded ``bar.sync``)."""
    b = SimtProgramBuilder("guarded", 32)
    b.global_array("out", 32)
    tid = b.tid_linear()
    never = b.setp(Op.SETP_LT, tid, Imm(0))
    with pytest.raises(IsaError, match=f"{op.value} cannot be guarded"):
        b.emit(Instruction(op, guard=never))
        b.st_global("out", tid, Imm(1.0))
        run_fermi(b.finish())


def test_listing_contains_labels_and_instructions():
    b = SimtProgramBuilder("p", 32)
    b.global_array("out", 32)
    tid = b.tid_linear()
    b.label("top")
    b.st_global("out", tid, Imm(1.0))
    prog = b.finish()
    listing = prog.listing()
    assert "top:" in listing and "st.global" in listing


# ----------------------------------------------------------------- simulator
def test_vector_add_executes_correctly():
    n = 64
    b = SimtProgramBuilder("vadd", n)
    b.global_array("a", n)
    b.global_array("b", n)
    b.global_array("c", n)
    tid = b.tid_linear()
    av = b.ld_global("a", tid)
    bv = b.ld_global("b", tid)
    b.st_global("c", tid, b.add(av, bv))
    prog = b.finish()
    a = np.arange(float(n))
    bb = np.ones(n) * 2
    result = run_fermi(prog, {"a": a, "b": bb})
    np.testing.assert_allclose(result.array("c"), a + bb)
    assert result.cycles > 0
    assert result.stats.instructions_issued >= 6 * (n // 32)


def test_predicated_store_masks_lanes():
    n = 32
    b = SimtProgramBuilder("pred", n)
    b.global_array("out", n)
    tid = b.tid_linear()
    even = b.setp(Op.SETP_EQ, b.mod(tid, Imm(2)), Imm(0))
    b.st_global("out", tid, Imm(7.0), guard=even)
    prog = b.finish()
    result = run_fermi(prog)
    out = result.array("out")
    np.testing.assert_allclose(out[::2], 7.0)
    np.testing.assert_allclose(out[1::2], 0.0)


def test_run_fermi_returns_the_shared_result_type():
    b = SimtProgramBuilder("copy", 32)
    b.global_array("out", 32)
    tid = b.tid_linear()
    b.st_global("out", tid, tid)
    result = run_fermi(b.finish())
    assert isinstance(result, SimulationResult)
    assert (result.engine, result.cores, result.outputs) == ("fermi", 1, {})
    assert result.hierarchies == (result.hierarchy,)
    counters = result.counters()
    assert counters["cycles"] == result.cycles and counters["engine"] == "fermi"
    assert counters["l1_write_misses"] + counters["l1_write_hits"] > 0


def test_shared_memory_and_barrier_exchange():
    n = 64
    b = SimtProgramBuilder("reverse", n)
    b.global_array("in_data", n)
    b.global_array("out", n)
    b.shared_array("tile", n)
    tid = b.tid_linear()
    v = b.ld_global("in_data", tid)
    b.st_shared("tile", tid, v)
    b.barrier()
    rev = b.sub(Imm(n - 1), tid)
    b.st_global("out", tid, b.ld_shared("tile", rev))
    prog = b.finish()
    data = np.arange(float(n))
    result = run_fermi(prog, {"in_data": data})
    np.testing.assert_allclose(result.array("out"), data[::-1])
    assert result.stats.barrier_arrivals == n
    assert result.stats.scratch_stores == n


def test_uniform_loop_executes_fixed_trip_count():
    n = 32
    b = SimtProgramBuilder("loop", n)
    b.global_array("out", n)
    tid = b.tid_linear()
    acc = b.mov(Imm(0.0))
    i = b.mov(Imm(0))
    b.label("body")
    b.add(acc, Imm(1.0), dst=acc)
    b.add(i, Imm(1), dst=i)
    again = b.setp(Op.SETP_LT, i, Imm(10))
    b.branch("body", guard=again)
    b.st_global("out", tid, acc)
    prog = b.finish()
    result = run_fermi(prog)
    np.testing.assert_allclose(result.array("out"), 10.0)


def test_divergent_branch_is_rejected():
    n = 32
    b = SimtProgramBuilder("diverge", n)
    b.global_array("out", n)
    tid = b.tid_linear()
    odd = b.setp(Op.SETP_EQ, b.mod(tid, Imm(2)), Imm(1))
    b.label("skip")
    b.branch("skip", guard=odd)
    b.st_global("out", tid, Imm(1.0))
    prog = b.finish()
    with pytest.raises(GpgpuExecutionError):
        run_fermi(prog)


def test_register_and_issue_statistics_scale_with_lanes():
    n = 64
    b = SimtProgramBuilder("stats", n)
    b.global_array("out", n)
    tid = b.tid_linear()
    b.st_global("out", tid, b.mul(tid, Imm(3)))
    prog = b.finish()
    result = run_fermi(prog)
    assert result.stats.instructions_per_lane == result.stats.instructions_issued * 32
    assert result.stats.register_writes > 0
    assert result.counters()["global_transactions"] >= 2


@pytest.mark.parametrize("op", [Op.LD_GLOBAL, Op.ST_GLOBAL, Op.LD_SHARED, Op.ST_SHARED])
@pytest.mark.parametrize("bad", ["minus_one", "length"])
def test_out_of_bounds_lane_raises_and_leaves_memory_unchanged(op, bad):
    # Only lane 5 is out of bounds; NumPy would wrap its -1 to the last element.
    n = 32
    b = SimtProgramBuilder("oob", n)
    b.global_array("data", n)
    b.global_array("out", n)
    if op in (Op.LD_SHARED, Op.ST_SHARED):
        b.shared_array("tile", n)
        array = "tile"
    else:
        array = "data"
    tid = b.tid_linear()
    index = b.select(b.setp(Op.SETP_EQ, tid, Imm(5)), Imm(-1 if bad == "minus_one" else n), tid)
    if op is Op.LD_GLOBAL:
        b.st_global("out", tid, b.ld_global(array, index))
    elif op is Op.LD_SHARED:
        b.st_global("out", tid, b.ld_shared(array, index))
    elif op is Op.ST_GLOBAL:
        b.st_global(array, index, Imm(9.0))
    else:
        b.st_shared(array, index, Imm(9.0))
    simulator = FermiSimulator(b.finish(), {"data": np.arange(float(n))})
    before = simulator.memory.snapshot()
    with pytest.raises(MemoryModelError, match=rf"{array}\[{-1 if bad == 'minus_one' else n}\]"):
        simulator.run()
    after = simulator.memory.snapshot()
    assert sorted(after) == sorted(before)
    for name in before:
        np.testing.assert_array_equal(after[name], before[name], err_msg=name)


def test_multi_warp_out_of_bounds_store_leaves_memory_untouched():
    # Lane 8 of the second warp is out of bounds: no warp's store lands.
    n = 64
    b = SimtProgramBuilder("oob_block", n)
    b.global_array("data", n)
    tid = b.tid_linear()
    index = b.select(b.setp(Op.SETP_EQ, tid, Imm(40)), Imm(-1), tid)
    b.st_global("data", index, Imm(9.0))
    simulator = FermiSimulator(b.finish(), {"data": np.arange(float(n))})
    with pytest.raises(MemoryModelError, match=r"data\[-1\]"):
        simulator.run()
    np.testing.assert_array_equal(simulator.memory.array("data"), np.arange(float(n)))


def test_global_access_coalesces_lanes_by_line():
    # Lanes read data[(tid % 4) * 32]: four words 128 bytes apart, so the
    # warp's load is four line transactions however many lanes share them.
    n = 32
    b = SimtProgramBuilder("lines", n)
    b.global_array("data", 128)
    b.global_array("out", n)
    tid = b.tid_linear()
    v = b.ld_global("data", b.mul(b.mod(tid, Imm(4)), Imm(32)))
    b.st_global("out", tid, v)
    program = b.finish()
    result = run_fermi(program, {"data": np.arange(128.0)})
    np.testing.assert_array_equal(result.array("out"), (np.arange(n) % 4) * 32.0)
    out = program.arrays.get("out")
    store_lines = len({(out.base_address + 4 * t) // 128 for t in range(n)})
    counters = result.counters()
    assert counters["l1_read_hits"] + counters["l1_read_misses"] == 4
    assert counters["l1_write_hits"] + counters["l1_write_misses"] == store_lines
    assert counters["global_transactions"] == 4 + store_lines


def test_shared_broadcast_reads_one_word_per_warp():
    n = 64
    b = SimtProgramBuilder("broadcast", n)
    b.global_array("out", n)
    b.shared_array("tile", n)
    tid = b.tid_linear()
    b.st_shared("tile", tid, tid)
    b.barrier()
    b.st_global("out", tid, b.ld_shared("tile", Imm(3)))
    result = run_fermi(b.finish())
    np.testing.assert_array_equal(result.array("out"), 3.0)
    counters = result.counters()
    assert counters["scratch_loads"] == n
    assert counters["scratchpad_reads"] == 2  # one word per warp


def test_two_warps_storing_one_shared_word_is_a_race():
    n = 64
    b = SimtProgramBuilder("shared_race", n)
    b.shared_array("tile", 32)
    tid = b.tid_linear()
    b.st_shared("tile", b.mod(tid, Imm(32)), tid)
    with pytest.raises(GpgpuExecutionError, match=r"race .*tile\[0\]"):
        run_fermi(b.finish())


def test_loading_a_global_word_another_warp_stores_is_a_race():
    # Warp 1 loads data[0..31] while warp 0 stores them, in one phase.
    n = 64
    b = SimtProgramBuilder("global_race", n)
    b.global_array("data", n)
    tid = b.tid_linear()
    v = b.ld_global("data", b.mod(b.add(tid, Imm(32)), Imm(n)))
    b.st_global("data", tid, b.add(v, Imm(1.0)))
    with pytest.raises(GpgpuExecutionError, match=r"race .*data\[0\]"):
        run_fermi(b.finish(), {"data": np.arange(float(n))})


def test_a_barrier_or_one_warp_owning_the_word_is_not_a_race():
    n = 64
    b = SimtProgramBuilder("no_race", n)
    b.global_array("data", n)
    b.global_array("out", n)
    b.shared_array("tile", n)
    tid = b.tid_linear()
    # Each warp re-reads the words it stored; the other warp's words are
    # read only after the barrier.
    b.st_global("data", tid, b.add(b.ld_global("data", tid), Imm(1.0)))
    b.st_shared("tile", tid, b.ld_global("data", tid))
    b.barrier()
    b.st_global("out", tid, b.ld_shared("tile", b.mod(b.add(tid, Imm(32)), Imm(n))))
    result = run_fermi(b.finish(), {"data": np.arange(float(n))})
    np.testing.assert_array_equal(result.array("data"), np.arange(n) + 1.0)
    np.testing.assert_array_equal(result.array("out"), np.roll(np.arange(n) + 1.0, -32))


def test_unbounded_loop_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr("repro.gpgpu.simulator.MAX_CYCLES", 2_000)
    b = SimtProgramBuilder("spin", 64)
    i = b.mov(Imm(0))
    b.label("spin")
    b.add(i, Imm(1), dst=i)
    b.branch("spin", guard=b.setp(Op.SETP_GE, i, Imm(0)))
    with pytest.raises(GpgpuExecutionError, match="exceeded 2000"):
        run_fermi(b.finish())
