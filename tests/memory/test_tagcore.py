"""The shared tag core: geometry math and LRU equivalence properties.

The cross-engine fidelity contract rests on one fact: replaying a line
address stream through the vectorised per-set
:class:`~repro.memory.tagcore.LruTagArray` (the batched engines' L1, a
whole wave at once) classifies every access exactly like
:class:`~repro.memory.cache.SetAssociativeCache` one access at a time
(the event engine's L1 and L2, and the batched engines' L2).  The
hypothesis sweeps below check the two on random mixed load/store traces
over random geometries and write policies — hit/miss sequence, victim
and victim-dirty sequences, writeback counts and residency — and are
`slow`-marked like the other property sweeps.  The cache's victims are
observed from outside: a recording ``next_level_access`` sees every
dirty writeback, and ``contains`` before and after each access names
the line that left the set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import CacheConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.request import AccessType
from repro.memory.tagcore import CacheGeometry, LruTagArray, group_spans


# ------------------------------------------------------------------ geometry
def test_geometry_scalar_and_vector_agree():
    geometry = CacheGeometry(line_bytes=128, num_sets=4, ways=2)
    addresses = np.array([0, 1, 127, 128, 513, 4096, 65535], dtype=np.int64)
    lines = geometry.line_address(addresses)
    sets = geometry.set_index(lines)
    banks = geometry.bank_index(lines, 3)
    for i, address in enumerate(addresses.tolist()):
        line = geometry.line_address(address)
        assert lines[i] == line
        assert sets[i] == geometry.set_index(line)
        assert banks[i] == geometry.bank_index(line, 3)
        assert line % 128 == 0
        assert 0 <= sets[i] < 4


def _recording_cache(config: CacheConfig):
    """A cache whose next level records every ``(line, is_write)`` it is sent."""
    calls: list[tuple[int, bool]] = []

    def next_level(line_addr: int, is_write: bool, cycle: int) -> int:
        calls.append((line_addr, is_write))
        return cycle

    return SetAssociativeCache(config, next_level_access=next_level), calls


def test_lru_victim_is_least_recently_used():
    cache, calls = _recording_cache(_reference_config(64, 1, 2, True, True))
    cache.access(0, AccessType.LOAD, 0)
    cache.access(64, AccessType.STORE, 1)
    cache.access(0, AccessType.LOAD, 2)  # line 0 becomes MRU; line 64 is now the LRU victim
    cache.access(128, AccessType.LOAD, 3)
    assert cache.contains(0) and cache.contains(128) and not cache.contains(64)
    assert calls[-1] == (64, True)  # the dirty victim is written back to its own line


def test_flush_counts_dirty_lines():
    cache = SetAssociativeCache(_reference_config(64, 2, 2, True, True))
    for cycle, (address, access) in enumerate(
        [(0, AccessType.STORE), (64, AccessType.LOAD), (128, AccessType.STORE)]
    ):
        cache.access(address, access, cycle)
    assert all(cache.contains(address) for address in (0, 64, 128))
    assert cache.flush() == 2
    assert cache.stats.writebacks == 2
    assert not any(cache.contains(address) for address in (0, 64, 128))


# ------------------------------------------------------- LRU equivalence sweep
def _reference_config(line_bytes, num_sets, ways, write_back, write_allocate):
    return CacheConfig(
        name="prop",
        size_bytes=line_bytes * num_sets * ways,
        line_bytes=line_bytes,
        ways=ways,
        banks=1,
        hit_latency=1,
        write_back=write_back,
        write_allocate=write_allocate,
    )


def _cache_replay(config: CacheConfig, trace):
    """The event engine's classification, observed from outside the cache.

    Returns the per-access hit, victim-line (``-1`` if none) and
    victim-dirty sequences, the same observables
    :meth:`LruTagArray.replay` reports.  Hits come from the stats delta;
    the victim is the line of the accessed set that ``contains`` saw
    resident before the access and not after; it is dirty when the next
    level receives a write of another line than the accessed one.
    """
    cache, calls = _recording_cache(config)
    geometry = cache.geometry
    seen: dict[int, set[int]] = {}  # set index -> every line that touched it
    hits, victims, victim_dirty = [], [], []
    for cycle, (address, is_write) in enumerate(trace):
        line_addr = geometry.line_address(address)
        candidates = seen.setdefault(geometry.set_index(line_addr), set())
        resident = [line for line in sorted(candidates) if cache.contains(line)]
        hits_before, calls_before = cache.stats.hits, len(calls)
        cache.access(address, AccessType.STORE if is_write else AccessType.LOAD, cycle)
        candidates.add(line_addr)
        evicted = [line for line in resident if not cache.contains(line)]
        written_back = [line for line, write in calls[calls_before:] if write and line != line_addr]
        assert len(evicted) <= 1 and written_back in ([], evicted)
        hits.append(cache.stats.hits != hits_before)
        victims.append(evicted[0] if evicted else -1)
        victim_dirty.append(bool(written_back))
    assert cache.stats.writebacks == sum(victim_dirty)
    return hits, victims, victim_dirty


def _assert_set_partition(array: LruTagArray, lines: np.ndarray, result) -> None:
    """``order`` groups the stream by set in stream order, ``run_starts``
    cuts it into same-line runs, and only a run's first access misses or
    evicts (every access is its own run under write-no-allocate)."""
    order, run_starts = result.order, result.run_starts
    assert sorted(order.tolist()) == list(range(lines.size))
    keys = array.geometry.set_index(lines[order]) * (lines.size + 1) + order
    assert np.all(np.diff(keys) > 0)
    grouped = lines[order]
    run_first = np.zeros(lines.size, dtype=bool)
    run_first[run_starts] = True
    if array.write_allocate:
        assert np.all(grouped[~run_first] == grouped[np.flatnonzero(~run_first) - 1])
    else:
        assert run_first.all()
    assert result.hit[order][~run_first].all()
    assert np.all(result.victim_line[order][~run_first] == -1)


def _tagarray_replay(config: CacheConfig, trace, chunks=()):
    """The vectorised per-set kernel, optionally replayed in chunks."""
    array = LruTagArray.from_config(config)
    addresses = np.array([address for address, _ in trace], dtype=np.int64)
    writes = np.array([is_write for _, is_write in trace], dtype=bool)
    lines = array.geometry.line_address(addresses)
    n = lines.size
    hits = np.empty(n, dtype=bool)
    victims = np.empty(n, dtype=np.int64)
    victim_dirty = np.empty(n, dtype=bool)
    bounds = [0, *sorted(int(c) % (n + 1) for c in chunks), n]
    for lo, hi in zip(bounds, bounds[1:]):
        result = array.replay(lines[lo:hi], writes[lo:hi])
        _assert_set_partition(array, lines[lo:hi], result)
        hits[lo:hi] = result.hit
        victims[lo:hi] = result.victim_line
        victim_dirty[lo:hi] = result.victim_dirty
    return hits.tolist(), victims.tolist(), victim_dirty.tolist()


@pytest.mark.slow
@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([16, 32, 64, 128]),
    st.integers(1, 16),
    st.integers(1, 8),
    st.booleans(),
    st.booleans(),
    st.lists(
        st.tuples(st.integers(0, 1 << 14), st.booleans()),
        min_size=1,
        max_size=200,
    ),
    st.lists(st.integers(0, 200), max_size=3),
)
def test_tagarray_matches_set_associative_cache(
    line_bytes, num_sets, ways, write_back, write_allocate, trace, chunks
):
    """The vectorised per-set kernel and the event engine's cache
    classify any random mixed load/store stream identically: hit/miss,
    victim and victim-dirty sequences, and the writeback count the
    cache's stats record — the property the exact cross-engine
    miss-count equality rests on.  Splitting the replay into chunks must
    not change anything — state carries across batches."""
    config = _reference_config(line_bytes, num_sets, ways, write_back, write_allocate)
    assert _tagarray_replay(config, trace, chunks) == _cache_replay(config, trace)


def test_tagarray_two_way_agreement_on_thrashing_trace():
    """Fast-lane pin of the two-way equivalence on a deterministic
    direct-mapped thrashing trace with mixed loads and stores."""
    config = _reference_config(64, 2, 1, True, True)
    rng = np.random.default_rng(3)
    trace = [
        (int(rng.integers(0, 1024)), bool(rng.integers(0, 2))) for _ in range(300)
    ]
    hits, victims, victim_dirty = _cache_replay(config, trace)
    assert _tagarray_replay(config, trace, chunks=(97, 201)) == (hits, victims, victim_dirty)
    assert any(victim_dirty) and not all(hits)


def test_group_spans_partitions_stably():
    keys = np.array([3, 1, 3, 0, 1, 3], dtype=np.int64)
    order, starts, ends = group_spans(keys, upper_bound=4)
    grouped = keys[order]
    assert sorted(order.tolist()) == list(range(6))
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        span = order[lo:hi]
        assert len(set(keys[span].tolist())) == 1
        assert span.tolist() == sorted(span.tolist())  # stream order preserved
    assert grouped.tolist() == sorted(keys.tolist())
    empty_order, empty_starts, empty_ends = group_spans(np.empty(0, dtype=np.int64))
    assert empty_order.size == empty_starts.size == empty_ends.size == 0


@pytest.mark.slow
@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from([32, 128]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.integers(0, 1 << 12), min_size=1, max_size=100),
)
def test_tagarray_contains_matches_cache_residency(line_bytes, num_sets, ways, addresses):
    """After any load-only trace, both models agree on which addresses
    are resident (not just on the hit/miss sequence)."""
    config = _reference_config(line_bytes, num_sets, ways, True, True)
    cache = SetAssociativeCache(config)
    array = LruTagArray.from_config(config)
    for cycle, address in enumerate(addresses):
        cache.access(address, AccessType.LOAD, cycle)
    lines = array.geometry.line_address(np.array(addresses, dtype=np.int64))
    array.replay(lines, np.zeros(lines.size, dtype=bool))
    for address in addresses:
        assert cache.contains(address) == array.contains(address)
