"""Tests for the shared inter-thread communication semantics."""

import pytest

from repro.graph.dfg import DataflowGraph
from repro.graph.interthread import (
    linear_offset,
    linearize,
    map_key,
    producer_map,
    unlinearize,
)
from repro.graph.opcodes import Opcode
from repro.sim.cycle import _map_tables


def _elevator(delta, const=0.0, window=None, src_offset=None):
    g = DataflowGraph()
    params = {"delta": delta, "const": const, "window": window}
    if src_offset is not None:
        params["src_offset"] = src_offset
    return g.add_node(Opcode.ELEVATOR, params=params)


def test_linearize_roundtrip():
    block = (4, 4, 2)
    for tid in range(32):
        assert linearize(unlinearize(tid, block), block) == tid


def test_linear_offset_multidimensional():
    assert linear_offset((1, 0), (8, 8)) == 1
    assert linear_offset((0, 1), (8, 8)) == 8
    assert linear_offset((0, 0, 1), (4, 4, 4)) == 16
    assert linear_offset(-3, (8,)) == -3


def test_elevator_source_simple_delta():
    node = _elevator(delta=1)
    src = producer_map(node, (16,))
    assert src[5] == 4
    assert src[0] == -1


def test_elevator_source_negative_delta():
    node = _elevator(delta=-1)  # consumer c receives from c + 1
    src = producer_map(node, (16,))
    assert src[5] == 6
    assert src[15] == -1


def test_elevator_destination_mirrors_source():
    # The event engine's destination table is the scatter of the map.
    node = _elevator(delta=3)
    num = 32
    sources, destinations = _map_tables(node, (num,))
    for producer in range(num):
        dst = destinations[producer]
        if dst >= 0:
            assert sources[dst] == producer
    assert destinations[num - 3 :] == [-1, -1, -1]


def test_window_bounds_communication():
    node = _elevator(delta=1, window=8)
    src = producer_map(node, (32,))
    assert src[8] == -1  # first thread of group 2
    assert src[9] == 8


def test_multidimensional_offset_boundaries():
    node = _elevator(delta=-4, src_offset=(0, -1))
    src = producer_map(node, (4, 4))
    # thread (x=2, y=0) has no northern neighbour
    assert src[2] == -1
    # thread (x=2, y=1) receives from (2, 0) = tid 2
    assert src[6] == 2


def test_eldst_source_matches_elevator_semantics():
    node_params = {"delta": 4, "const": 0, "window": None, "array": "a"}
    g = DataflowGraph()
    node = g.add_node(Opcode.ELDST, params=node_params)
    src = producer_map(node, (16,))
    assert src[7] == 3
    assert src[2] == -1
    assert src.tolist() == producer_map(_elevator(delta=4), (16,)).tolist()


def test_map_key_names_the_map():
    assert map_key(_elevator(delta=2, const=1.0)) == map_key(_elevator(delta=2, const=5.0))
    assert map_key(_elevator(delta=2)) != map_key(_elevator(delta=2, window=8))
    assert map_key(_elevator(delta=4, src_offset=(0, -1))) != map_key(_elevator(delta=4))


def test_invalid_block_dim_rejected():
    from repro.errors import GraphError

    with pytest.raises(GraphError):
        linearize((0,), (0,))
    with pytest.raises(GraphError):
        linearize((0,), (2, 2, 2, 2))
