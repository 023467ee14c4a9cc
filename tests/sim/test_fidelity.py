"""Cross-engine fidelity of the batched engine's analytic cache model.

The contract (see ``benchmarks/bench_batched_fidelity.py`` for the full
measured table): on order-stable traces the batched engine's L1/L2 miss
counts are *exactly* the event engine's — under the default Table 2
configuration and under a capacity-constrained 2-way 1 KiB L1 alike —
and its cycle estimate stays within 10% on cache-thrashing sweeps.
Store misses must follow the write-allocate read-for-ownership counter
mapping on both engines: an L1 ``write_miss`` whose fill *reads* L2.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.common import replay_access_batch, run_against_hierarchy
from repro.compiler.pipeline import compile_kernel
from repro.config.system import default_system_config
from repro.kernel.builder import KernelBuilder
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim import simulate
from repro.sim.analytic_cache import AnalyticMemoryModel
from repro.sim.launch import KernelLaunch
from repro.workloads.registry import get_workload

MISS_COUNTERS = (
    "l1_read_misses",
    "l1_write_misses",
    "l2_read_misses",
    "l2_write_misses",
)

#: (workload, params) for the three streaming acceptance variants.
STREAM_CASES = (
    ("matrixMul", {"dim": 16}),
    ("convolution", {"n": 256}),
    ("reduce", {"n": 256, "window": 32}),
)

#: (workload, variant, params) communicating variants the window-batched
#: engine runs; their traces are replay-ordered, so misses gate exactly.
WINDOW_CASES = (
    ("matrixMul", "dmt", {"dim": 16}),
    ("matrixMul", "dmt_win", {"dim": 16}),
    ("reduce", "dmt_win", {"n": 256, "window": 32}),
)


def capacity_config(size_bytes: int = 1024, ways: int = 2):
    """A capacity-constrained L1 (default: 2-way 1 KiB, 4 sets)."""
    config = default_system_config()
    l1 = replace(config.memory.l1, size_bytes=size_bytes, ways=ways)
    return replace(config, memory=replace(config.memory, l1=l1)).validate()


def run_both(launch_factory, config):
    compiled = compile_kernel(launch_factory().graph, config)
    event = simulate(compiled, launch_factory(), engine="event")
    batched = simulate(compiled, launch_factory())
    assert batched.engine == "batched"
    return event, batched


def stream_launch(name, params):
    prepared = get_workload(name).prepare(params)
    return prepared, (lambda: prepared.launch("stream"))


# ------------------------------------------------------------- exact fidelity
@pytest.mark.parametrize("name,params", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
def test_miss_counts_exact_under_capacity_constrained_l1(name, params):
    """Acceptance bar: batched L1/L2 miss counts exactly equal the event
    engine's on the stream variants under a 2-way 1 KiB L1."""
    prepared, factory = stream_launch(name, params)
    event, batched = run_both(factory, capacity_config())
    event_counters, batched_counters = event.counters(), batched.counters()
    for key in MISS_COUNTERS + ("l1_writebacks", "dram_reads", "dram_writes"):
        assert batched_counters[key] == event_counters[key], key
    # The analytic model is cycle-exact on these order-stable traces.
    assert batched.cycles == event.cycles


@pytest.mark.parametrize("name,params", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
def test_miss_counts_exact_under_default_config(name, params):
    prepared, factory = stream_launch(name, params)
    event, batched = run_both(factory, default_system_config())
    event_counters, batched_counters = event.counters(), batched.counters()
    for key in MISS_COUNTERS:
        assert batched_counters[key] == event_counters[key], key
    assert batched.cycles == event.cycles


# ----------------------------------------------- window-batched communicating
@pytest.mark.parametrize(
    "name,variant,params", WINDOW_CASES, ids=[f"{c[0]}-{c[1]}" for c in WINDOW_CASES]
)
@pytest.mark.parametrize("config_name", ["default", "capacity"])
def test_window_batched_miss_counts_exact(name, variant, params, config_name):
    """The communicating dmt/dmt_win variants keep the exact-fidelity
    contract on order-stable traces: L1/L2 miss counts, writebacks and
    DRAM traffic equal the event engine's under the default and the
    capacity-constrained configuration alike."""
    config = {"default": default_system_config(), "capacity": capacity_config()}[config_name]
    prepared = get_workload(name).prepare(params)
    compiled = compile_kernel(prepared.launch(variant).graph, config)
    event = simulate(compiled, prepared.launch(variant), engine="event")
    window = simulate(compiled, prepared.launch(variant))
    assert window.engine == "window-batched"
    event_counters, window_counters = event.counters(), window.counters()
    for key in MISS_COUNTERS + ("l1_writebacks", "dram_reads", "dram_writes"):
        assert window_counters[key] == event_counters[key], key


def test_window_batched_cycle_error_within_bar_on_windowed_barrier():
    """The windowed-barrier reduce kernel is the window engine's timing
    worst case (segment maxima approximate the event engine's arrival
    interleaving); the cycle estimate must stay within the 10% bar."""
    prepared = get_workload("reduce").prepare({"n": 256, "window": 32})
    compiled = compile_kernel(prepared.launch("dmt_win").graph, capacity_config())
    event = simulate(compiled, prepared.launch("dmt_win"), engine="event")
    window = simulate(compiled, prepared.launch("dmt_win"))
    error = abs(window.cycles - event.cycles) / event.cycles
    assert error <= 0.10, f"cycle error {error:.1%} (bar 10%)"
    assert window.stats.barrier_arrivals == event.stats.barrier_arrivals


def test_miss_counts_exact_with_mixed_line_sizes():
    """With l1.line_bytes < l2.line_bytes several L1 lines share one L2
    line; the analytic model must re-align at each level (regression:
    it used to probe L2 with L1-aligned addresses, quadrupling L2
    misses and DRAM reads on a 32 B/128 B split)."""
    config = default_system_config()
    l1 = replace(config.memory.l1, size_bytes=1024, ways=2, line_bytes=32)
    config = replace(config, memory=replace(config.memory, l1=l1)).validate()
    prepared, factory = stream_launch("reduce", {"n": 192, "window": 16})
    event, batched = run_both(factory, config)
    event_counters, batched_counters = event.counters(), batched.counters()
    for key in MISS_COUNTERS + ("dram_reads", "dram_writes"):
        assert batched_counters[key] == event_counters[key], key
    assert batched.cycles == event.cycles


def test_cycle_error_within_bar_on_thrashing_config():
    """Overlapped load/store phases (larger matmul, direct-mapped 512 B L1)
    are the replay-order approximation's worst case; the cycle estimate
    must stay within the 10% fidelity bar there."""
    prepared, factory = stream_launch("matrixMul", {"dim": 24})
    event, batched = run_both(factory, capacity_config(size_bytes=512, ways=1))
    error = abs(batched.cycles - event.cycles) / event.cycles
    assert error <= 0.10, f"cycle error {error:.1%} (bar 10%)"
    event_counters, batched_counters = event.counters(), batched.counters()
    # Read misses stay exact even in the overlap regime (the load stream
    # itself is still replayed in event order); only store classification
    # may drift, and not by much.
    assert batched_counters["l1_read_misses"] == event_counters["l1_read_misses"]
    drift = abs(batched_counters["l1_write_misses"] - event_counters["l1_write_misses"])
    assert drift <= 0.10 * max(1, event_counters["l1_write_misses"]) + 25


# -------------------------------------------------------- store RFO contract
def _store_only_launch(n=256):
    builder = KernelBuilder("store_only", n)
    builder.global_array("out", n)
    tid = builder.thread_idx_x()
    builder.store("out", tid, tid * 2.0)
    return KernelLaunch(builder.finish(), {})


def test_store_miss_is_read_for_ownership_on_both_engines():
    """A store miss is an L1 write_miss whose fill *reads* L2 (RFO): L2
    write counters stay zero and DRAM sees reads, not writes — the
    regression the old compulsory line model violated by charging
    l2_write_misses and dram.writes per store miss."""
    event, batched = run_both(_store_only_launch, default_system_config())
    for result in (event, batched):
        counters = result.counters()
        assert counters["l1_write_misses"] > 0
        assert counters["l2_write_misses"] == 0
        assert counters["l2_write_hits"] == 0
        assert counters["l2_read_misses"] == counters["l1_write_misses"]
        assert counters["dram_reads"] == counters["l2_read_misses"]
        assert counters["dram_writes"] == 0
    for key in MISS_COUNTERS + ("l1_write_hits", "dram_reads", "dram_writes"):
        assert batched.counters()[key] == event.counters()[key], key


def test_dirty_writebacks_become_l2_stores_on_both_engines():
    """Evicting a dirty L1 line writes it back to L2 as a store access at
    the victim's own line address; both engines must agree."""
    config = capacity_config(size_bytes=512, ways=1)  # 4 lines: stores thrash
    event, batched = run_both(lambda: _store_only_launch(n=512), config)
    for result in (event, batched):
        counters = result.counters()
        assert counters["l1_writebacks"] > 0
        l2_writes = counters["l2_write_hits"] + counters["l2_write_misses"]
        assert l2_writes == counters["l1_writebacks"]
    for key in MISS_COUNTERS + ("l1_writebacks", "dram_reads", "dram_writes"):
        assert batched.counters()[key] == event.counters()[key], key


# ------------------------------------- vectorised walk == event hierarchy
@pytest.mark.parametrize("name,params", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
@pytest.mark.parametrize("config_name", ["default", "capacity", "thrash"])
def test_vectorised_walk_identical_to_sequential_walk(name, params, config_name):
    """The per-set vectorised tag walk is not an approximation: every
    ``access_batch`` call of a batched run, replayed one access at a time
    through the event engine's ``MemoryHierarchy``, completes on the same
    cycles and leaves the same L1/L2/DRAM counters, under every gated
    memory regime."""
    from repro.sim.batched import BatchedSimulator

    config = {
        "default": default_system_config(),
        "capacity": capacity_config(),
        "thrash": capacity_config(size_bytes=512, ways=1),
    }[config_name]
    _, factory = stream_launch(name, params)
    compiled = compile_kernel(factory().graph, config)
    replay = run_against_hierarchy(BatchedSimulator(compiled, factory()))
    assert replay.replayed > 0
    assert not replay.mismatches, "\n".join(replay.mismatches)


def _mixed_stream_config(**l1_fields):
    """A memory config with a small L1 shaped by ``l1_fields`` over a
    small L2, so fills, evictions and writebacks happen every batch."""
    base = default_system_config().memory
    l1 = replace(base.l1, line_bytes=64, hit_latency=4, **l1_fields)
    l2 = replace(base.l2, size_bytes=4096, ways=4, banks=2, hit_latency=8)
    return replace(base, l1=l1, l2=l2)


def _assert_model_matches_hierarchy(config, batches):
    """Each ``(addresses, cycles, writes)`` batch, fed to the vectorised
    model and walked one access at a time through a fresh hierarchy,
    completes on the same cycles; counters and MSHR state agree after.
    Returns the vectorised model."""
    model = AnalyticMemoryModel(MemoryHierarchy(config))
    oracle = MemoryHierarchy(config)
    for addresses, cycles, writes in batches:
        assert np.array_equal(
            model.access_batch(addresses, cycles, writes),
            replay_access_batch(oracle, addresses, cycles, writes),
        )
    assert model.hierarchy.stats().flat() == oracle.stats().flat()
    assert model.l1_mshr == oracle.l1._mshr
    return model


def test_vectorised_model_identical_on_random_mixed_streams():
    """Model-level differential: random mixed load/store streams with
    non-monotone integral issue cycles, replayed in several batches,
    produce identical completion cycles, counters and MSHR state on the
    vectorised model and on the event engine's hierarchy walked one
    access at a time (thrash-heavy config, tiny MSHR so prune events
    fire)."""
    rng = np.random.default_rng(1234)
    for write_back, write_allocate, mshr_entries in (
        (True, True, 1),
        (True, True, 32),
        (False, False, 2),
        (True, False, 1),
    ):
        config = _mixed_stream_config(
            size_bytes=512,
            ways=2,
            banks=2,
            write_back=write_back,
            write_allocate=write_allocate,
            mshr_entries=mshr_entries,
        )
        batches = []
        clock = 0.0
        for _ in range(4):
            n = int(rng.integers(50, 400))
            addresses = rng.integers(0, 1 << 12, n)
            writes = rng.integers(0, 2, n).astype(bool)
            cycles = np.floor(
                clock + np.cumsum(rng.integers(0, 3, n)) + rng.integers(0, 9, n)
            ).astype(np.float64)
            clock = float(cycles.max()) + 1
            batches.append((addresses, cycles, writes))
        _assert_model_matches_hierarchy(config, batches)


@pytest.mark.parametrize("write_back", [True, False])
@pytest.mark.parametrize("write_allocate", [True, False])
def test_vectorised_model_identical_on_scalar_batches(write_back, write_allocate):
    """The engine's call shape: every batch is all loads or all stores,
    with a scalar ``is_store``.  Alternating load and store batches over
    a hot-line pool, with long same-line runs and a tiny MSHR, match the
    hierarchy walked one access at a time under every write policy."""
    rng = np.random.default_rng(77)
    config = _mixed_stream_config(
        size_bytes=512,
        ways=2,
        banks=3,
        write_back=write_back,
        write_allocate=write_allocate,
        mshr_entries=1,
    )
    batches = []
    clock = 0
    for batch in range(6):
        lines = np.repeat(rng.integers(0, 40, 60), rng.integers(1, 12, 60))
        addresses = lines * 64 + rng.integers(0, 64, lines.size)
        cycles = clock + np.cumsum(rng.integers(0, 2, lines.size)) + rng.integers(0, 6, lines.size)
        clock = int(cycles.max()) + int(rng.integers(0, 300))
        batches.append((addresses, cycles.astype(np.float64), bool(batch % 2)))
    _assert_model_matches_hierarchy(config, batches)


def test_vectorised_model_identical_on_a_long_default_stream():
    """A long stream on the default L1: 2^16 loads, then 2^16 stores,
    each over every set, in same-line runs of up to 64 accesses over
    twice the L1's lines, so fills, evictions, dirty writebacks, MSHR
    merges and MSHR prunes all happen and the tag and MSHR state carries
    from the first batch into the second."""
    rng = np.random.default_rng(2024)
    config = default_system_config().memory
    lines_in_l1 = config.l1.size_bytes // config.l1.line_bytes
    batches = []
    clock = 0
    for is_store in (False, True):
        lengths = rng.integers(1, 65, 4096)
        lines = np.repeat(rng.integers(0, 2 * lines_in_l1, lengths.size), lengths)[: 1 << 16]
        assert lines.size == 1 << 16
        addresses = lines * config.l1.line_bytes + rng.integers(0, 32, lines.size) * 4
        cycles = clock + np.arange(lines.size) // 16
        clock = int(cycles.max()) + 1
        batches.append((addresses, cycles.astype(np.float64), is_store))
    assert np.unique(addresses // config.l1.line_bytes % config.l1.num_sets).size == (
        config.l1.num_sets
    )
    stats = _assert_model_matches_hierarchy(config, batches).l1_stats
    assert stats.writebacks > 0 and stats.mshr_merges > 0


@st.composite
def _hot_line_batches(draw):
    """Batches over a pool of hot lines: the drawn shape sets the pool
    size, the longest same-line run and the run count, and a drawn seed
    lays out the stream.  Small pools on small L1s give long runs and
    lines filled twice in one batch; large pools with short runs give
    the many distinct fills that make the MSHR prune."""
    pool_size = draw(st.integers(1, 64))
    max_run = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(128, size=pool_size, replace=False)
    batches = []
    clock = 0
    for _ in range(draw(st.integers(1, 4))):
        runs = draw(st.integers(1, 200))
        lengths = rng.integers(1, max_run + 1, runs)
        lines = np.repeat(rng.choice(pool, runs), lengths)
        n = lines.size
        addresses = lines * 64 + rng.integers(0, 64, n)
        writes = rng.integers(0, 2, n).astype(bool)
        cycles = clock + np.cumsum(rng.integers(0, 3, n)) + rng.integers(0, 9, n)
        clock = int(cycles.max()) + int(rng.integers(1, 400))
        batches.append((addresses, cycles.astype(np.float64), writes))
    return batches


@pytest.mark.slow
@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3, 4, 5]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 2, 32]),
    _hot_line_batches(),
)
def test_vectorised_model_identical_across_geometries(
    num_sets, ways, banks, write_back, write_allocate, mshr_entries, batches
):
    """The same differential over L1 shapes the fixed cases miss: 1-8
    sets, 1-4 ways, bank counts that need not divide the set count, every
    write-policy pair and MSHR sizes that prune every few fills, on
    hot-line streams where same-line runs are long and a line can be
    filled twice in one batch."""
    config = _mixed_stream_config(
        size_bytes=num_sets * ways * 64,
        ways=ways,
        banks=banks,
        write_back=write_back,
        write_allocate=write_allocate,
        mshr_entries=mshr_entries,
    )
    _assert_model_matches_hierarchy(config, batches)


# ------------------------------------------------------------- fallback mode
def test_load_dependent_load_falls_back_but_stays_equivalent():
    """A gather (load feeding another load's index) disables the
    event-order replay; outputs and op counters must still match and the
    analytic model must still classify capacity misses."""
    n = 64

    def build():
        from repro.graph.opcodes import DType

        builder = KernelBuilder("gather", n)
        builder.global_array("indices", n, dtype=DType.I32)
        builder.global_array("data", n)
        builder.global_array("out", n)
        tid = builder.thread_idx_x()
        idx = builder.load("indices", tid)
        builder.store("out", tid, builder.load("data", idx))
        graph = builder.finish()
        rng = np.random.default_rng(7)
        inputs = {
            "indices": rng.integers(0, n, n),
            "data": rng.uniform(-1, 1, n),
        }
        return KernelLaunch(graph, inputs)

    from repro.sim.batched import BatchedSimulator

    compiled = compile_kernel(build().graph, capacity_config())
    simulator = BatchedSimulator(compiled, build())
    assert not simulator._static.ordered_loads
    event = simulate(compiled, build(), engine="event")
    batched = simulator.run()
    assert np.array_equal(event.array("out"), batched.array("out"))
    event_counters, batched_counters = event.stats.as_dict(), batched.stats.as_dict()
    for key in ("alu_ops", "global_loads", "global_stores", "tokens_sent"):
        assert batched_counters[key] == event_counters[key], key
    assert batched.counters()["l1_read_misses"] > 0


# ------------------------------------------------------------ scratch replay
def _tile_reverse_kernel(n: int, window: int):
    """Store a tile, synchronise the block, read it back reversed; four
    consecutive threads share a bank (``n`` = 128), so accesses queue."""
    b = KernelBuilder("tile_reverse", n)
    b.global_array("a", n)
    b.global_array("out", n)
    b.scratch_array("tile", n)
    tid = b.thread_idx_x()
    slot = (tid & 3) * (n // 4) + (tid >> 2)
    bar = b.barrier(b.scratch_store("tile", slot, b.load("a", tid)), window=window)
    b.store("out", slot, b.scratch_load("tile", (n - 1) - slot, order=bar))
    graph = b.finish()
    return graph, KernelLaunch(graph, {"a": np.arange(n, dtype=np.float64)})


def test_scratch_replay_identical_to_event_scratchpad():
    """A barrier-separated two-level scratch kernel runs batched with the
    event engine's cycles and counters, and every scratch level's stream,
    replayed through ``Scratchpad.access`` one access at a time, completes
    on the same cycles and leaves the same counters."""
    from repro.sim.batched import BatchedSimulator

    n = 128
    graph, launch = _tile_reverse_kernel(n, window=n)
    compiled = compile_kernel(graph)
    event = simulate(compiled, launch, engine="event")
    batched = simulate(compiled, _tile_reverse_kernel(n, window=n)[1])
    assert batched.engine == "window-batched"
    assert batched.cycles == event.cycles
    counters = batched.counters()
    for key, value in event.counters().items():
        if key != "engine":
            assert counters[key] == value, key
    assert counters["scratchpad_bank_conflicts"] > 0
    replay = run_against_hierarchy(
        BatchedSimulator(compiled, _tile_reverse_kernel(n, window=n)[1])
    )
    assert replay.scratch_replayed == 2 * n
    assert not replay.scratch_mismatches, "\n".join(replay.scratch_mismatches)
    tid = np.arange(n)
    tile = np.empty(n)
    tile[(tid & 3) * (n // 4) + (tid >> 2)] = tid
    assert np.array_equal(replay.result.array("out"), tile[::-1])
    assert np.array_equal(batched.array("out"), event.array("out"))
