"""Tests for the kernel-builder DSL (the Table 1 programming model)."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.errors import KernelBuildError
from repro.graph.opcodes import DType, Opcode
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.functional import run_functional
from repro.sim.launch import KernelLaunch


def test_constants_are_deduplicated():
    b = KernelBuilder("k", 8)
    c1 = b.const(3.0)
    c2 = b.const(3.0)
    assert c1.node_id == c2.node_id
    assert b.const(3).node_id != c1.node_id  # different dtype


def test_thread_index_nodes_are_cached():
    b = KernelBuilder("k", 8)
    assert b.thread_idx_x().node_id == b.thread_idx_x().node_id


def test_operator_overloading_builds_expected_graph():
    b = KernelBuilder("k", 8)
    b.global_array("out", 8)
    tid = b.thread_idx_x()
    expr = (tid + 1) * 2 - tid
    b.store("out", tid, expr)
    graph = b.finish()
    opcodes = {n.opcode for n in graph.nodes}
    assert {Opcode.ADD, Opcode.MUL, Opcode.SUB, Opcode.STORE} <= opcodes


def test_dtype_promotion_to_float():
    b = KernelBuilder("k", 8)
    tid = b.thread_idx_x()
    result = tid * 2.5
    assert result.dtype is DType.F32


def test_from_thread_or_const_creates_elevator():
    b = KernelBuilder("k", 8)
    b.global_array("out", 8)
    tid = b.thread_idx_x()
    v = b.load("out", tid) if False else b.const(1.0)
    b.tag_value("v", v)
    remote = b.from_thread_or_const("v", -1, 0.0)
    b.store("out", tid, remote)
    graph = b.finish()
    elevators = graph.nodes_with_opcode(Opcode.ELEVATOR)
    assert len(elevators) == 1
    # source offset -1 => hardware shift +1
    assert elevators[0].param("delta") == 1


def test_from_thread_or_const_rejects_zero_delta():
    b = KernelBuilder("k", 8)
    v = b.const(1.0)
    with pytest.raises(KernelBuildError):
        b.from_thread_or_const(v, 0, 0.0)


def test_untagged_variable_is_reported_at_finish():
    b = KernelBuilder("k", 8)
    b.global_array("out", 8)
    tid = b.thread_idx_x()
    remote = b.from_thread_or_const("missing", -1, 0.0)
    b.store("out", tid, remote)
    with pytest.raises(KernelBuildError, match="missing"):
        b.finish()


def test_tag_value_connects_pending_elevators():
    b = KernelBuilder("k", 8)
    b.global_array("out", 8)
    tid = b.thread_idx_x()
    remote = b.from_thread_or_const("sum", -1, 0.0)
    total = remote + 1.0
    b.tag_value("sum", total)
    b.store("out", tid, total)
    graph = b.finish()
    elevator = graph.nodes_with_opcode(Opcode.ELEVATOR)[0]
    assert list(graph.inputs_of(elevator.node_id)) == [0]


def test_duplicate_tag_rejected():
    b = KernelBuilder("k", 8)
    v = b.const(1.0)
    b.tag_value("x", v)
    with pytest.raises(KernelBuildError):
        b.tag_value("x", v)


def test_from_thread_or_mem_requires_earlier_thread():
    b = KernelBuilder("k", (4, 4))
    b.global_array("a", 16)
    tid = b.thread_idx_linear()
    pred = b.thread_idx_x().eq(0)
    with pytest.raises(KernelBuildError):
        b.from_thread_or_mem("a", tid, pred, src_offset=(1, 0))


def test_from_thread_or_mem_builds_eldst():
    b = KernelBuilder("k", (4, 4))
    b.global_array("a", 16)
    b.global_array("out", 16)
    tid = b.thread_idx_linear()
    pred = b.thread_idx_x().eq(0)
    val = b.from_thread_or_mem("a", tid, pred, src_offset=(-1, 0))
    b.store("out", tid, val)
    graph = b.finish()
    eldst = graph.nodes_with_opcode(Opcode.ELDST)
    assert len(eldst) == 1
    assert eldst[0].param("delta") == 1
    assert eldst[0].param("array") == "a"


def test_scratch_requires_shared_array():
    b = KernelBuilder("k", 8)
    b.global_array("g", 8)
    with pytest.raises(KernelBuildError):
        b.scratch_load("g", b.thread_idx_x())


def test_load_requires_global_array():
    b = KernelBuilder("k", 8)
    b.scratch_array("s", 8)
    with pytest.raises(KernelBuildError):
        b.load("s", b.thread_idx_x())


def test_finish_records_metadata_and_closes_builder():
    b = KernelBuilder("k", (4, 2))
    b.global_array("out", 8)
    b.store("out", b.thread_idx_linear(), b.const(1.0))
    graph = b.finish()
    assert graph.metadata["block_dim"] == (4, 2)
    assert graph.metadata["num_threads"] == 8
    assert "out" in graph.metadata["arrays"]
    with pytest.raises(KernelBuildError):
        b.const(1)


def test_values_cannot_cross_builders():
    b1 = KernelBuilder("a", 4)
    b2 = KernelBuilder("b", 4)
    v = b1.const(1.0)
    with pytest.raises(KernelBuildError):
        b2.unary(Opcode.NEG, v)


#: Each Python operator a kernel may write and the opcode it builds.  The
#: same expression on Python numbers is the reference (``t`` the thread,
#: ``x`` its element of ``X``).
OPERATORS = {
    "radd": (lambda t, x: 3 + t, Opcode.ADD),
    "rmul": (lambda t, x: 2.5 * x, Opcode.MUL),
    "rtruediv": (lambda t, x: 1.0 / x, Opcode.DIV),
    "abs": (lambda t, x: abs(x), Opcode.ABS),
    "or": (lambda t, x: t | 5, Opcode.OR),
    "xor": (lambda t, x: t ^ 3, Opcode.XOR),
    "lshift": (lambda t, x: t << 2, Opcode.SHL),
    "le": (lambda t, x: t <= 4, Opcode.LE),
}
X = [-2.5, -1.0, 0.5, 1.0, 2.0, 3.5, -4.0, 8.0]


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_python_operators_run_on_both_simulators(name):
    build, opcode = OPERATORS[name]
    b = KernelBuilder(name, len(X))
    b.global_array("x", len(X))
    tid = b.thread_idx_x()
    b.output("r", build(tid, b.load("x", tid)))
    graph = b.finish()
    assert opcode in {node.opcode for node in graph.nodes}
    launch = KernelLaunch(graph, {"x": np.array(X)})
    functional = run_functional(launch).output("r")
    event = simulate(compile_kernel(graph), launch, engine="event").outputs["r"]
    assert functional == event == [build(t, x) for t, x in enumerate(X)]
