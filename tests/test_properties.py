"""Property-based tests (hypothesis) on the core data structures and semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dfg import DataflowGraph
from repro.graph.interthread import linearize, producer_map, unlinearize
from repro.compiler.pipeline import compile_kernel
from repro.graph.opcodes import Opcode
from repro.gpgpu.isa import Imm, Op
from repro.gpgpu.program import SimtProgramBuilder
from repro.gpgpu.simulator import run_fermi
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.cycle import _map_tables
from repro.sim.functional import run_functional
from repro.sim.launch import KernelLaunch
from repro.workloads.registry import all_workloads
from repro.workloads.reduce import windowed_partial_sums

# Property sweeps are the slow lane: CI's fast test job skips them with
# ``-m "not slow"``; the full tier-1 run (and the CI tier1 job) includes them.
pytestmark = pytest.mark.slow

# --------------------------------------------------------------------- dims
block_dims = st.one_of(
    st.tuples(st.integers(1, 64)),
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)),
)


@given(block_dims, st.integers(0, 4095))
def test_linearize_unlinearize_roundtrip(block_dim, tid):
    total = int(np.prod(block_dim))
    tid = tid % total
    assert linearize(unlinearize(tid, block_dim), block_dim) == tid


def _reference_producers(block_dim, delta, src_offset, window):
    """Brute-force consumer→producer map: enumerate the block's coordinates
    and windows instead of computing them by division."""
    dims = tuple(block_dim) + (1,) * (3 - len(block_dim))
    coords = [(x, y, z) for z in range(dims[2]) for y in range(dims[1]) for x in range(dims[0])]
    tid_of = {coord: tid for tid, coord in enumerate(coords)}
    n = len(coords)
    group = {}
    if window is not None:
        for index, start in enumerate(range(0, n, window)):
            for tid in range(start, min(start + window, n)):
                group[tid] = index
    producers = []
    for consumer, coord in enumerate(coords):
        if src_offset is None:
            producer = consumer - delta if consumer - delta in range(n) else -1
        else:
            off = tuple(src_offset) + (0,) * (3 - len(src_offset))
            producer = tid_of.get(tuple(c + o for c, o in zip(coord, off)), -1)
        if producer >= 0 and window is not None and group[producer] != group[consumer]:
            producer = -1
        producers.append(producer)
    return producers


@st.composite
def interthread_maps(draw):
    """A block shape with a linear delta or a per-dimension coordinate offset."""
    block_dim = draw(block_dims)
    if draw(st.booleans()):
        return block_dim, draw(st.integers(-40, 40)), None
    rank = len(block_dim)
    return block_dim, 0, draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))


@settings(deadline=None, max_examples=200)
@given(
    interthread_maps(),
    st.sampled_from([Opcode.ELEVATOR, Opcode.ELDST]),
    st.one_of(st.none(), st.integers(1, 64)),
)
def test_producer_map_matches_coordinate_reference(shape, opcode, window):
    block_dim, delta, src_offset = shape
    params = {"delta": delta, "const": 0.0, "window": window, "array": "a"}
    if src_offset is not None:
        params["src_offset"] = src_offset
    node = DataflowGraph().add_node(opcode, params=params)
    reference = _reference_producers(block_dim, delta, src_offset, window)
    assert producer_map(node, block_dim).tolist() == reference
    # The event engine's destination table is the map's exact inverse.
    sources, destinations = _map_tables(node, block_dim)
    assert sources == reference
    links = {(producer, consumer) for consumer, producer in enumerate(sources) if producer >= 0}
    assert {(p, c) for p, c in enumerate(destinations) if c >= 0} == links


@settings(deadline=None, max_examples=60)
@given(st.lists(st.one_of(st.none(), st.integers(0, 4095)), min_size=1, max_size=80))
def test_coalesce_partitions_active_lanes(indices):
    """A Fermi load of ``data[index]`` (``None``: lane inactive) issues one
    L1 transaction per distinct 128-byte line among each warp's active
    lanes, and every active lane gets its element."""
    n = len(indices)
    b = SimtProgramBuilder("gather", n)
    for name in ("index", "active", "out"):
        b.global_array(name, n)
    b.global_array("data", 4096)
    tid = b.tid_linear()
    index = b.ld_global("index", tid)
    active = b.setp(Op.SETP_NE, b.ld_global("active", tid), Imm(0))
    b.st_global("out", tid, b.ld_global("data", index, guard=active), guard=active)
    program = b.finish()
    data = np.arange(4096.0) + 0.5
    inputs = {
        "index": np.array([i or 0 for i in indices], dtype=float),
        "active": np.array([i is not None for i in indices], dtype=float),
        "data": data,
    }
    result = run_fermi(program, inputs)

    def lines(name, lanes):
        spec = program.arrays.get(name)
        return {(spec.base_address + lane * spec.elem_bytes) // 128 for lane in lanes}

    expected = {"loads": 0, "stores": 0}
    for start in range(0, n, 32):
        warp = range(start, min(start + 32, n))
        live = [t for t in warp if indices[t] is not None]
        expected["loads"] += len(lines("index", warp)) + len(lines("active", warp))
        expected["loads"] += len(lines("data", [indices[t] for t in live]))
        expected["stores"] += len(lines("out", live))
    counters = result.counters()
    assert counters["l1_read_hits"] + counters["l1_read_misses"] == expected["loads"]
    assert counters["l1_write_hits"] + counters["l1_write_misses"] == expected["stores"]
    assert counters["global_transactions"] == expected["loads"] + expected["stores"]
    out = result.array("out")
    for t, i in enumerate(indices):
        assert out[t] == (data[i] if i is not None else 0.0)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=64))
def test_prefix_sum_kernel_matches_numpy(values):
    n = len(values)
    builder = KernelBuilder("prop_scan", n)
    builder.global_array("in_data", n)
    builder.global_array("prefix", n)
    tid = builder.thread_idx_x()
    value = builder.load("in_data", tid)
    running = builder.from_thread_or_const("sum", -1, 0.0)
    total = running + value
    builder.tag_value("sum", total)
    builder.store("prefix", tid, total)
    graph = builder.finish()
    result = run_functional(KernelLaunch(graph, {"in_data": np.array(values)}))
    np.testing.assert_allclose(result.array("prefix"), np.cumsum(values), rtol=1e-9, atol=1e-9)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(1, 5).map(lambda k: 2 ** k),
    st.integers(1, 4),
    st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=128),
)
def test_windowed_partial_sums_reference_properties(window, groups, raw):
    n = window * groups
    values = np.resize(np.asarray(raw, dtype=float), n)
    out = windowed_partial_sums(values, window)
    # the first element of every window equals that window's total
    for start in range(0, n, window):
        assert np.isclose(out[start], values[start:start + window].sum())
        # suffix sums are non-increasing for non-negative inputs
        assert all(np.diff(out[start:start + window]) <= 1e-9)


# Small problem sizes so the event engine stays fast per example.
_STREAM_PARAMS = {
    "scan": {"n": 32},
    "matrixMul": {"dim": 6},
    "convolution": {"n": 48},
    "reduce": {"n": 64, "window": 8},
    "lud": {"dim": 6},
    "srad": {"dim": 6},
    "bpnn": {"n_in": 8, "n_out": 8},
    "hotspot": {"dim": 6},
    "pathfinder": {"cols": 32, "rows": 4},
    "spmv": {"rows": 8, "max_nnz": 4},
}
_STREAM_WORKLOADS = all_workloads()


def test_registry_exposes_stream_workloads():
    # Every stream-capable workload needs a params entry below (and vice
    # versa), or the engine-equivalence property test cannot cover it.
    assert {w.name for w in _STREAM_WORKLOADS} == set(_STREAM_PARAMS)
    for workload in _STREAM_WORKLOADS:
        params = workload.params_with_defaults(_STREAM_PARAMS[workload.name])
        graph = workload.build_stream(params)
        assert not graph.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST, Opcode.BARRIER)


@settings(deadline=None, max_examples=9)
@given(
    st.integers(0, len(_STREAM_WORKLOADS) - 1),
    st.integers(0, 3),
)
def test_batched_engine_matches_event_engine_on_stream_workloads(index, seed):
    """The batched engine (``auto`` on a stream kernel) and the event engine
    agree bit for bit on every
    inter-thread-free workload of the registry: same output arrays and the
    same operation counters, for any input data."""
    workload = _STREAM_WORKLOADS[index]
    prepared = workload.prepare(_STREAM_PARAMS[workload.name], seed=seed)
    compiled = compile_kernel(prepared.launch("stream").graph)
    event = simulate(compiled, prepared.launch("stream"), engine="event")
    batched = simulate(compiled, prepared.launch("stream"))
    assert batched.engine == "batched"
    for name in prepared.expected:
        assert np.array_equal(event.array(name), batched.array(name)), name
    prepared.check_outputs({n: batched.array(n) for n in prepared.expected})
    event_counters = event.stats.as_dict()
    batched_counters = batched.stats.as_dict()
    for counter, value in event_counters.items():
        if counter in ("cycles", "engine"):  # provenance differs by design
            continue
        assert batched_counters[counter] == value, counter


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 48), st.integers(1, 47))
def test_elevator_chain_in_kernel_matches_shift(n, shift):
    """A single fromThreadOrConst behaves as an exact thread-index shift."""
    shift = shift % n or 1
    builder = KernelBuilder("prop_shift", n)
    builder.global_array("in_data", n)
    builder.global_array("out", n)
    tid = builder.thread_idx_x()
    value = builder.load("in_data", tid)
    builder.tag_value("v", value)
    remote = builder.from_thread_or_const("v", -shift, -1.0)
    builder.store("out", tid, remote)
    graph = builder.finish()
    data = np.arange(float(n)) + 1
    result = run_functional(KernelLaunch(graph, {"in_data": data}))
    out = result.array("out")
    np.testing.assert_allclose(out[:shift], -1.0)
    np.testing.assert_allclose(out[shift:], data[:-shift] if shift else data)
