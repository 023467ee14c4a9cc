"""Scalar and vectorised pure-op semantics agree, bit for bit, on edge values.

:func:`repro.graph.semantics.evaluate_pure` is the one statement of what a
pure opcode computes; the batched engines evaluate whole waves through
``repro.sim.batched._eval_pure_vec`` instead.  For every ``PURE_OPCODES``
member and every dtype it is used with, this test evaluates both on the
cross product of an edge grid (signed zeros, a subnormal, NaN, infinities,
2**24 +- 1, negative integers, zero divisors) and requires the same bytes
for every element, or the same exception type where the scalar raises.
A NaN result has one bit pattern on both sides, also while a profile hook
changes which operand's NaN CPython's float arithmetic propagates.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import DType, Opcode, opcode_info
from repro.graph.semantics import PURE_OPCODES, evaluate_pure
from repro.sim.batched import _eval_pure_vec

P24 = 2**24
FLOATS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, P24 - 1.0, P24 + 1.0, -2.5, 7.0]
)
INTS = np.array([0, 1, -1, -7, 3, P24 - 1, P24 + 1, -(P24 + 1)], dtype=np.int64)
BOOLS = np.array([False, True])
GRIDS = {DType.F32: FLOATS, DType.I32: INTS, DType.BOOL: BOOLS}

ARITHMETIC = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.MOD,
    Opcode.MIN,
    Opcode.MAX,
    Opcode.ABS,
    Opcode.NEG,
    Opcode.FMA,
}
SPECIAL = {Opcode.SQRT, Opcode.RSQRT, Opcode.EXP, Opcode.LOG, Opcode.RCP}
BITWISE = {Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR}
COMPARE = {Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE, Opcode.EQ, Opcode.NE}
LOGIC = {Opcode.LAND, Opcode.LOR, Opcode.LNOT}
MOVE = {Opcode.SELECT, Opcode.SPLIT, Opcode.JOIN}


def _cases():
    """``(opcode, node dtype, operand grid dtype)`` for every valid pairing."""
    for op in sorted(PURE_OPCODES, key=lambda o: o.value):
        if op in ARITHMETIC:
            pairs = [(DType.F32, DType.F32), (DType.I32, DType.I32)]
        elif op in SPECIAL:
            pairs = [(DType.F32, DType.F32)]
        elif op in BITWISE:
            pairs = [(DType.I32, DType.I32)]
        elif op in COMPARE:
            pairs = [(DType.BOOL, DType.F32), (DType.BOOL, DType.I32)]
        elif op in LOGIC:
            pairs = [(DType.BOOL, DType.BOOL), (DType.BOOL, DType.F32)]
        else:
            assert op in MOVE, f"{op} has no dtype pairing in this test"
            pairs = [(dt, dt) for dt in DType]
        for node_dtype, grid in pairs:
            yield op, node_dtype, grid


CASES = list(_cases())


def _operand_columns(op: Opcode, grid: DType) -> list[np.ndarray]:
    arity = opcode_info(op).min_arity
    grids = [GRIDS[grid]] * arity
    if op is Opcode.SELECT:
        grids[0] = BOOLS  # the condition
    rows = list(itertools.product(*grids))
    return [np.array([row[k] for row in rows], dtype=g.dtype) for k, g in enumerate(grids)]


def test_every_pure_opcode_is_covered():
    assert {op for op, _, _ in CASES} == set(PURE_OPCODES)


@pytest.mark.parametrize(
    "op,node_dtype,grid",
    CASES,
    ids=[f"{op.value}-{dt.value}-{grid.value}" for op, dt, grid in CASES],
)
def test_scalar_and_vector_semantics_agree(op, node_dtype, grid):
    _check_agreement(op, node_dtype, grid)


def test_semantics_agree_under_a_profile_hook():
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        for case in CASES:
            _check_agreement(*case)
    finally:
        sys.setprofile(previous)


def _check_agreement(op, node_dtype, grid):
    node = DataflowGraph().add_node(op, node_dtype)
    columns = _operand_columns(op, grid)
    size = len(columns[0])
    scalar: list = []
    raised: dict[int, type] = {}
    for i in range(size):
        try:
            scalar.append(evaluate_pure(node, [col[i].item() for col in columns]))
        except Exception as exc:  # the exception type is what is compared
            raised[i] = type(exc)
            scalar.append(None)

    if raised:
        for kind in set(raised.values()):
            rows = [i for i, k in raised.items() if k is kind]
            with pytest.raises(kind):
                _eval_pure_vec(node, [col[rows] for col in columns])
    keep = [i for i in range(size) if i not in raised]
    if not keep:
        return
    with np.errstate(all="ignore"):
        vector = np.asarray(_eval_pure_vec(node, [col[keep] for col in columns]))
    python_type = {"b": bool, "i": int, "f": float}[vector.dtype.kind]
    types = {type(scalar[i]) for i in keep}
    assert types == {python_type}, f"scalar results are {types}, vector is {vector.dtype}"
    expected = np.array([scalar[i] for i in keep], dtype=vector.dtype)
    bytes_differ = expected.view(np.uint8) != vector.view(np.uint8)
    differing = np.flatnonzero(bytes_differ.reshape(len(keep), -1).any(axis=1))
    examples = [
        (tuple(col[keep[k]].item() for col in columns), expected[k], vector[k])
        for k in differing[:5]
    ]
    assert not len(differing), f"{len(differing)} of {len(keep)} differ, e.g. {examples}"


def test_integer_zero_divisor_raises_on_both():
    for op in (Opcode.DIV, Opcode.MOD):
        node = DataflowGraph().add_node(op, DType.I32)
        with pytest.raises(SimulationError):
            evaluate_pure(node, [3, 0])
        with pytest.raises(SimulationError):
            _eval_pure_vec(node, [np.array([3, 4]), np.array([1, 0])])
