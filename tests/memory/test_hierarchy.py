"""Tests for DRAM, scratchpad and the assembled hierarchy."""

from collections import Counter

import numpy as np

from repro.config.system import DramConfig, MemorySystemConfig, ScratchpadConfig
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessType
from repro.memory.scratchpad import Scratchpad


# --------------------------------------------------------------------- DRAM
def test_dram_fixed_latency_and_bank_queueing():
    dram = DramModel(DramConfig(channels=1, banks_per_channel=1, access_latency=50,
                                bank_busy_cycles=8))
    first = dram.access(0, False, 0)
    second = dram.access(0, False, 0)
    assert first == 50
    assert second == 8 + 50  # queued behind the first burst
    assert dram.stats.reads == 2
    assert dram.stats.queue_cycles == 8


def test_dram_channels_interleave():
    dram = DramModel(DramConfig(channels=2, banks_per_channel=1, access_latency=50,
                                bank_busy_cycles=8), line_bytes=128)
    a = dram.access(0, False, 0)
    b = dram.access(128, False, 0)  # next line -> other channel
    assert a == b == 50


# ---------------------------------------------------------------- scratchpad
def test_scratchpad_bank_conflicts_serialise():
    config = ScratchpadConfig(banks=2, access_latency=4, bank_conflict_penalty=1)
    pad, scalar = Scratchpad(config), Scratchpad(config)
    # Words 0 and 2 both map to bank 0: two words queue in one bank.
    done = pad.access_group([0], [2], is_write=False, cycle=0)
    assert done == max(scalar.access(0, False, 0), scalar.access(8, False, 0)) > 4
    assert pad.stats == scalar.stats
    assert pad.stats.bank_conflicts >= 1


def test_scratchpad_broadcast_counts_once():
    # Four lanes reading word 0 are one word in bank 0: one scalar access.
    config = ScratchpadConfig(banks=32, access_latency=4)
    pad, scalar = Scratchpad(config), Scratchpad(config)
    done = pad.access_group([0], [1], is_write=False, cycle=0)
    assert done == scalar.access(0, False, 0) == 4
    assert pad.stats == scalar.stats
    assert pad.stats.reads == 1


def test_scratchpad_access_batch_equals_scalar_accesses():
    """The closed-form bank queue is the scalar model: random streams with
    non-monotone issue cycles, served in several batches, complete on the
    same cycles and leave the same bank state and counters as one
    ``access`` call per element."""
    rng = np.random.default_rng(7)
    for banks, penalty, latency in ((1, 1, 0), (4, 3, 24), (32, 1, 24), (32, 0, 4)):
        config = ScratchpadConfig(
            banks=banks, access_latency=latency, bank_conflict_penalty=penalty
        )
        batched, scalar = Scratchpad(config), Scratchpad(config)
        for batch in range(4):
            n = int(rng.integers(0, 300))
            addresses = rng.integers(0, 1024, n) * 4
            writes = rng.integers(0, 2, n).astype(bool)
            cycles = rng.integers(0, 60, n) + 40 * batch
            got = batched.access_batch(addresses, writes, cycles)
            want = [
                scalar.access(int(a), bool(w), int(c))
                for a, w, c in zip(addresses, writes, cycles)
            ]
            assert got.tolist() == want
        assert batched.stats == scalar.stats
        assert batched._bank_free_at == scalar._bank_free_at


def test_scratchpad_access_group_equals_scalar_word_accesses():
    """The per-bank closed form of a warp access is the scalar model: one
    ``access`` per unique word, all on the warp's cycle."""
    rng = np.random.default_rng(11)
    for banks, penalty in ((32, 1), (4, 2), (8, 0)):
        config = ScratchpadConfig(banks=banks, access_latency=24, bank_conflict_penalty=penalty)
        grouped, scalar = Scratchpad(config), Scratchpad(config)
        for step in range(200):
            lanes = int(rng.integers(0, 33))
            addresses = (rng.integers(0, 4 * banks, lanes) * 4).tolist()
            write, cycle = bool(step % 3 == 0), 2 * step
            words = sorted({a // 4 for a in addresses})
            want = max(
                [cycle + 24] + [scalar.access(w * 4, write, cycle) for w in words]
            )
            per_bank = Counter(w % banks for w in words)
            got = grouped.access_group(list(per_bank), list(per_bank.values()), write, cycle)
            assert got == want
        assert grouped.stats == scalar.stats
        assert grouped._bank_free_at == scalar._bank_free_at


# ----------------------------------------------------------------- hierarchy
def test_hierarchy_hit_levels_progress():
    """A cold access goes to DRAM; a warm access to the same line hits L1."""
    h = MemoryHierarchy(MemorySystemConfig())
    cold = h.load(0, cycle=0)
    assert (h.dram.stats.reads, h.l1.stats.read_hits) == (1, 0)
    warm = h.load(4, cycle=cold)
    assert (h.dram.stats.reads, h.l1.stats.read_hits) == (1, 1)
    assert warm - cold < cold


def test_hierarchy_group_access_counts_transactions():
    """A warp's line list is one scalar access per line, on the warp's cycle."""
    grouped = MemoryHierarchy(MemorySystemConfig(), l1_write_through=True)
    scalar = MemoryHierarchy(MemorySystemConfig(), l1_write_through=True)
    for lines, access, cycle in (
        ([0], AccessType.LOAD, 0),
        ([0, 1024, 2048], AccessType.LOAD, 100),
        ([128, 1024], AccessType.STORE, 101),
        ([], AccessType.LOAD, 102),
    ):
        want = max([cycle] + [scalar.access(line, access, cycle) for line in lines])
        assert grouped.access_group(lines, access, cycle) == want
    assert grouped.stats() == scalar.stats()
    l1 = grouped.l1.stats
    assert l1.read_hits + l1.read_misses == 4
    assert l1.write_hits + l1.write_misses == 2


def test_hierarchy_write_through_option_changes_policy():
    wt = MemoryHierarchy(MemorySystemConfig(), l1_write_through=True)
    assert wt.l1.config.write_back is False
    wb = MemoryHierarchy(MemorySystemConfig())
    assert wb.l1.config.write_back is True


def test_hierarchy_stats_flatten():
    h = MemoryHierarchy(MemorySystemConfig())
    h.load(0, 0)
    flat = h.stats().flat()
    assert flat["l1_read_misses"] == 1
    assert flat["dram_reads"] == 1
