"""Pin the batched engine's fallback eLDST walk.

An eLDST whose index is itself a loaded value (``idx = load(col, tid)``)
makes the load stream order-unstable (RA042), so the window-batched
engine (RA044) cannot classify the eLDST's loading heads in the
prepass's event order: it walks them at the node's own position, in the
order a fallback LOAD walks its accesses.  No registry cell has this
shape.  Outputs and op counters must equal the event engine's; the
batched cycles and cache counters are pinned to their recorded values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analyze.manager import analyze_kernel
from repro.compiler.pipeline import compile_kernel
from repro.graph.opcodes import DType
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.launch import KernelLaunch

#: Counters the analytic memory model produces, in ``PINNED`` order.
CACHE_COUNTERS = (
    "batched_line_misses",
    "batched_line_hits",
    "l1_read_hits",
    "l1_read_misses",
    "l1_write_hits",
    "l1_write_misses",
    "l1_writebacks",
    "l1_mshr_merges",
    "l1_bank_conflict_cycles",
    "l2_read_hits",
    "l2_read_misses",
    "l2_write_hits",
    "l2_write_misses",
    "l2_writebacks",
    "l2_mshr_merges",
    "l2_bank_conflict_cycles",
    "dram_reads",
    "dram_writes",
    "dram_queue_cycles",
)

#: (threads, cores) -> (batched cycles, CACHE_COUNTERS values).
PINNED = {
    (64, None): (667, (6, 138, 76, 4, 62, 2, 0, 138, 1702, 0, 6, 0, 0, 0, 0, 0, 6, 0, 0)),
    (64, 4): (690, (16, 128, 68, 12, 60, 4, 0, 128, 816, 0, 16, 0, 0, 0, 0, 0, 16, 0, 81)),
    (256, None): (
        672,
        (24, 552, 304, 16, 248, 8, 0, 552, 4540, 0, 24, 0, 0, 0, 0, 0, 24, 0, 0),
    ),
    (256, 4): (
        692,
        (59, 517, 277, 43, 240, 16, 0, 517, 2853, 0, 59, 0, 0, 0, 0, 2, 59, 0, 266),
    ),
}

#: Counters that are not operation counts.
NOT_OPS = {"cycles", "engine", "cores", "trace", *CACHE_COUNTERS}


def _gather_forward(n: int):
    b = KernelBuilder("eldst_fallback", n)
    b.global_array("col", n, dtype=DType.I32)
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    idx = b.load("col", tid)  # data-dependent eLDST index: RA042
    value = b.from_thread_or_mem("x", idx, (tid & 3).eq(0), src_offset=-1, window=16)
    b.store("out", tid, value)
    return b.finish()


def _inputs(n: int) -> dict:
    rng = np.random.default_rng(n)
    return {"col": rng.integers(0, n, n).tolist(), "x": rng.uniform(-4, 4, n).tolist()}


@pytest.mark.parametrize(("n", "cores"), sorted(PINNED, key=str))
def test_fallback_eldst_walk_is_pinned(n, cores):
    graph = _gather_forward(n)
    compiled = compile_kernel(graph)
    codes = set(analyze_kernel(compiled).codes())
    assert {"RA042", "RA044"} <= codes

    event = simulate(compiled, KernelLaunch(graph, _inputs(n)), engine="event", cores=cores)
    batched = simulate(compiled, KernelLaunch(graph, _inputs(n)), cores=cores)
    assert batched.engine == "window-batched"
    assert np.array_equal(event.array("out"), batched.array("out"))
    event_counters, batched_counters = event.counters(), batched.counters()
    for counter, value in event_counters.items():
        if counter not in NOT_OPS:
            assert batched_counters[counter] == value, counter

    cycles, cache = PINNED[(n, cores)]
    assert batched.cycles == cycles
    assert tuple(batched_counters[key] for key in CACHE_COUNTERS) == cache
