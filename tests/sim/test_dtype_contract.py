"""The dtype contract, bit for bit, across the functional, event and batched engines.

``DType.F32`` values are computed and stored as float64 and ``DType.I32``
as int64 by every engine (``docs/api.md``).  The edges of that contract
are where engines drift apart: subnormal operands (no flush to zero),
signed zero through ADD/MUL/MIN/MAX/SELECT (Python's ``min``/``max``
keep the first operand on a tie), and int<->float conversion around
2**24, the last integer float32 could hold exactly (float64 holds it and
its neighbours, and float->int truncates toward zero).  Each case is one
small kernel whose output arrays must be bit-identical on all three
engines and equal to a NumPy float64/int64 reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.graph.opcodes import DType, Opcode
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.functional import run_functional
from repro.sim.launch import KernelLaunch

TINY = 5e-324  # the smallest positive subnormal float64
SUBNORMALS = np.array(
    [TINY, -TINY, 1e-310, -1e-310, 2.2250738585072014e-308 / 3, 1.4e-45, 0.0, 1.0]
)
# Every ordered pair of signed zeros, plus zeros against +-1.
ZEROS_X = np.array([-0.0, 0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0])
ZEROS_Y = np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0, 0.0, -1.0])
P24 = 2**24
INTS = np.array([P24 - 1, P24, P24 + 1, P24 + 3, -(P24 + 1), -P24, 7, 0], dtype=np.int64)
FLOATS = np.array(
    [P24 - 0.5, P24 + 0.5, P24 + 1.0, -(P24 + 1.5), 2.5, -2.5, 1e8 + 0.75, -0.0]
)


def _subnormal_kernel(n):
    b = KernelBuilder("subnormals", n)
    b.global_array("x", n)
    outs = ("half", "double", "diff", "quot", "fma")
    for name in outs:
        b.global_array(name, n)
    tid = b.thread_idx_x()
    x = b.load("x", tid)
    b.store("half", tid, x * 0.5)
    b.store("double", tid, x + x)
    b.store("diff", tid, x - TINY)
    b.store("quot", tid, b.binary(Opcode.DIV, x, 4.0))
    b.store("fma", tid, b.fma(x, 0.25, x))
    x_in = SUBNORMALS
    reference = {
        "half": x_in * 0.5,
        "double": x_in + x_in,
        "diff": x_in - TINY,
        "quot": x_in / 4.0,
        "fma": x_in * 0.25 + x_in,
    }
    return b.finish(), {"x": x_in}, reference


def _signed_zero_kernel(n):
    b = KernelBuilder("signed_zero", n)
    b.global_array("x", n)
    b.global_array("y", n)
    outs = ("sum", "prod", "lo", "hi", "pick", "neg")
    for name in outs:
        b.global_array(name, n)
    tid = b.thread_idx_x()
    x = b.load("x", tid)
    y = b.load("y", tid)
    b.store("sum", tid, x + y)
    b.store("prod", tid, x * y)
    b.store("lo", tid, b.minimum(x, y))
    b.store("hi", tid, b.maximum(x, y))
    b.store("pick", tid, b.select(b.compare(Opcode.LT, x, y), x, y))
    b.store("neg", tid, b.unary(Opcode.NEG, x))
    x_in, y_in = ZEROS_X, ZEROS_Y
    reference = {
        "sum": x_in + y_in,
        "prod": x_in * y_in,
        # Python min/max: the second operand only when strictly smaller/larger.
        "lo": np.where(y_in < x_in, y_in, x_in),
        "hi": np.where(y_in > x_in, y_in, x_in),
        "pick": np.where(x_in < y_in, x_in, y_in),
        "neg": -x_in,
    }
    return b.finish(), {"x": x_in, "y": y_in}, reference


def _int_float_kernel(n):
    b = KernelBuilder("int_float_2p24", n)
    b.global_array("i", n, dtype=DType.I32)
    b.global_array("f", n)
    b.global_array("i_as_f", n)
    b.global_array("i_times_f", n)
    b.global_array("f_as_i", n, dtype=DType.I32)
    b.global_array("f_stored_as_i", n, dtype=DType.I32)
    b.global_array("i_stored_as_f", n)
    tid = b.thread_idx_x()
    i = b.load("i", tid)
    f = b.load("f", tid)
    b.store("i_as_f", tid, i + 0.0)
    b.store("i_times_f", tid, i * 1.5)
    b.store("f_as_i", tid, b.binary(Opcode.ADD, f, 0.0, dtype=DType.I32))
    b.store("f_stored_as_i", tid, f)
    b.store("i_stored_as_f", tid, i)
    i_in, f_in = INTS, FLOATS
    reference = {
        "i_as_f": i_in.astype(np.float64),
        "i_times_f": i_in * 1.5,
        "f_as_i": np.trunc(f_in).astype(np.int64),
        "f_stored_as_i": np.trunc(f_in).astype(np.int64),
        "i_stored_as_f": i_in.astype(np.float64),
    }
    return b.finish(), {"i": i_in, "f": f_in}, reference


@pytest.mark.parametrize(
    "make_kernel",
    [_subnormal_kernel, _signed_zero_kernel, _int_float_kernel],
    ids=["subnormal", "signed-zero", "int-float-2p24"],
)
def test_dtype_edges_are_bit_identical_across_engines(make_kernel):
    graph, inputs, reference = make_kernel(8)
    launch = KernelLaunch(graph, inputs)
    compiled = compile_kernel(graph)
    runs = {"functional": run_functional(launch)}
    for engine, resolved in (("event", "event"), ("auto", "batched")):
        result = simulate(compiled, KernelLaunch(graph, inputs), engine=engine)
        assert result.engine == resolved
        runs[resolved] = result
    for name, expected in reference.items():
        for engine, run in runs.items():
            got = np.asarray(run.array(name))
            assert got.dtype == expected.dtype, (engine, name, got.dtype)
            assert got.tobytes() == expected.tobytes(), (engine, name, got, expected)
