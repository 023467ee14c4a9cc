"""Shared-DRAM device, per-core ports and the sliced L2 memory model."""

import numpy as np
from dataclasses import replace

from repro.compiler.pipeline import compile_kernel
from repro.config.system import DramConfig, MemorySystemConfig, default_system_config
from repro.kernel.builder import KernelBuilder
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.shared_dram import SharedDRAM
from repro.sim import simulate
from repro.sim.launch import KernelLaunch
from repro.workloads.registry import get_workload


def test_port_stats_sum_to_device_stats():
    shared = SharedDRAM(DramConfig(), line_bytes=128)
    a, b = shared.port(), shared.port()
    a.access(0, False, 0)
    a.access(128, True, 0)
    b.access(256, False, 0)
    assert a.stats.reads == 1 and a.stats.writes == 1
    assert b.stats.reads == 1 and b.stats.writes == 0
    assert shared.stats.reads == 2 and shared.stats.writes == 1
    assert shared.stats.accesses == a.stats.accesses + b.stats.accesses


def test_ports_contend_for_the_same_bank():
    config = DramConfig(channels=1, banks_per_channel=1, bank_busy_cycles=8)
    shared = SharedDRAM(config, line_bytes=128)
    a, b = shared.port(), shared.port()
    first = a.access(0, False, 0)
    second = b.access(0, False, 0)  # same line, same bank, same cycle
    assert second == first + config.bank_busy_cycles
    assert b.stats.queue_cycles == config.bank_busy_cycles
    assert a.stats.queue_cycles == 0
    # A private device would not have seen the other core's traffic.
    private = SharedDRAM(config, line_bytes=128).port()
    assert private.access(0, False, 0) == first


def test_hierarchy_accepts_a_shared_port():
    config = default_system_config().memory
    shared = SharedDRAM(config.dram, line_bytes=config.l2.line_bytes)
    h1 = MemoryHierarchy(config, dram=shared.port())
    h2 = MemoryHierarchy(config, dram=shared.port())
    h1.load(0, 0)
    h2.load(1 << 20, 0)
    assert h1.stats().flat()["dram_reads"] == 1
    assert h2.stats().flat()["dram_reads"] == 1
    assert shared.stats.reads == 2


def test_l2_slicing_keeps_whole_sets():
    memory = default_system_config().memory
    sliced = memory.sliced(4)
    set_bytes = memory.l2.line_bytes * memory.l2.ways
    assert sliced.l2.size_bytes == memory.l2.size_bytes // 4
    assert sliced.l2.size_bytes % set_bytes == 0
    assert sliced.l1 == memory.l1
    # Slicing never goes below one set, and one core keeps the full L2.
    tiny = replace(
        memory,
        l2=replace(memory.l2, size_bytes=set_bytes),
    )
    assert tiny.sliced(8).l2.size_bytes == set_bytes
    assert memory.sliced(1) is memory


def _stream_launch(n=64):
    b = KernelBuilder("axpy_shared", n)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    b.store("out", tid, b.load("x", tid) * 3.0)
    return KernelLaunch(b.finish(), {"x": np.arange(n) * 0.25})


def test_multicore_shared_dram_counts_traffic_once():
    launch = _stream_launch(n=64)
    compiled = compile_kernel(launch.graph)
    multi = simulate(compiled, launch, cores=4, engine="event")
    assert multi.shared_dram is not None
    counters = multi.counters()
    per_port = sum(h.dram.stats.accesses for h in multi.hierarchies)
    assert per_port == multi.shared_dram.stats.accesses
    assert counters["dram_reads"] + counters["dram_writes"] == per_port


def test_shared_dram_contention_slows_the_sharded_run():
    """With one shared device, 4 cores see more DRAM queueing than one
    core running the whole launch."""
    launch = _stream_launch(n=256)
    compiled = compile_kernel(launch.graph)
    multi = simulate(compiled, _stream_launch(n=256), cores=4, engine="event")
    single = simulate(compiled, _stream_launch(n=256), cores=1, engine="event")
    assert single.shared_dram is None
    queue = sum(h.dram.stats.queue_cycles for h in multi.hierarchies)
    single_queue = sum(h.dram.stats.queue_cycles for h in single.hierarchies)
    assert queue > single_queue
    assert np.array_equal(multi.array("out"), single.array("out"))


def test_batched_engine_mirrors_contention_into_its_estimate():
    launch = _stream_launch(n=256)
    compiled = compile_kernel(launch.graph)
    single = simulate(compiled, _stream_launch(n=256), cores=1)
    multi = simulate(compiled, _stream_launch(n=256), cores=4)
    assert single.engine == multi.engine == "batched"
    assert np.array_equal(single.array("out"), multi.array("out"))
    multi_queue = sum(h.dram.stats.queue_cycles for h in multi.hierarchies)
    single_queue = sum(h.dram.stats.queue_cycles for h in single.hierarchies)
    assert multi_queue > single_queue == 0
    # The batched engine queues on the shared device itself, so it lands
    # on the event engine's 4-core timing and queueing exactly.
    event = simulate(compiled, _stream_launch(n=256), cores=4, engine="event")
    assert multi.cycles == event.cycles == 481
    event_queue = sum(h.dram.stats.queue_cycles for h in event.hierarchies)
    assert multi_queue == event_queue == 384
    assert multi.shared_dram.device.stats == multi.shared_dram.stats


def test_sliced_l2_is_wired_into_the_cores():
    launch = _stream_launch(n=64)
    compiled = compile_kernel(launch.graph)
    multi = simulate(compiled, launch, cores=4, engine="event")
    full = default_system_config().memory.l2.size_bytes
    for hierarchy in multi.hierarchies:
        assert hierarchy.l2.config.size_bytes == full // 4


def test_sharded_batched_run_models_the_sliced_l2():
    """A sharded batched core must see its ``1/cores`` L2 slice, not the
    whole L2: on a convolution whose working set exceeds the slice, the
    batched engine's L2 misses equal the event engine's."""
    config = default_system_config()
    memory = replace(
        config.memory,
        l1=replace(config.memory.l1, size_bytes=512, ways=1),
        l2=replace(config.memory.l2, size_bytes=4096, ways=4),
    )
    config = replace(config, memory=memory).validate()
    prepared = get_workload("convolution").prepare({"n": 1024})
    compiled = compile_kernel(prepared.launch("stream").graph, config)

    def l2_misses(engine, resolved):
        result = simulate(compiled, prepared.launch("stream"), cores=4, engine=engine)
        assert (result.engine, result.cores) == (resolved, 4)
        for hierarchy in result.hierarchies:
            assert hierarchy.l2.config.size_bytes == 4096 // 4
        counters = result.counters()
        return counters["l2_read_misses"] + counters["l2_write_misses"]

    assert l2_misses("auto", "batched") == l2_misses("event", "event") == 352
