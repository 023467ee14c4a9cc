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
    indices = geometry.line_index(addresses)
    sets = geometry.set_index(indices)
    banks = geometry.bank_index(indices, 3)
    for i, address in enumerate(addresses.tolist()):
        index = geometry.line_index(address)
        assert indices[i] == index == address // 128
        assert sets[i] == geometry.set_index(index) == index % 4
        assert banks[i] == geometry.bank_index(index, 3) == index % 3
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
        index = geometry.line_index(address)
        line_addr = index * geometry.line_bytes
        candidates = seen.setdefault(geometry.set_index(index), set())
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


def _expand_runs(array: LruTagArray, lines: np.ndarray, result):
    """Check the run structure of a :class:`TagReplay` and expand it back
    to per-access hit, victim-line-address and victim-dirty sequences.

    ``order`` groups the stream by set in stream order, ``run_starts``
    cuts it into same-line runs (every access is its own run under
    write-no-allocate), ``line`` names each run's line, and every access
    after a run's first is a hit that evicts nothing.
    """
    order, run_starts = result.order, result.run_starts
    n = lines.size
    assert sorted(order.tolist()) == list(range(n))
    keys = array.geometry.set_index(lines[order]) * (n + 1) + order
    assert np.all(np.diff(keys) > 0)
    grouped = lines[order]
    run_first = np.zeros(n, dtype=bool)
    run_first[run_starts] = True
    if array.write_allocate:
        assert np.all(grouped[~run_first] == grouped[np.flatnonzero(~run_first) - 1])
        assert np.all(grouped[run_starts[1:]] != grouped[run_starts[1:] - 1])
    else:
        assert run_first.all()
    assert np.array_equal(result.line, grouped[run_starts])
    nruns = run_starts.size
    for field in (result.hit, result.victim, result.victim_dirty):
        assert field.shape == (nruns,)
    assert not np.any(result.victim_dirty & (result.victim == -1))
    line_bytes = array.geometry.line_bytes
    hits = np.ones(n, dtype=bool)
    victims = np.full(n, -1, dtype=np.int64)
    victim_dirty = np.zeros(n, dtype=bool)
    first = order[run_starts]
    hits[first] = result.hit
    victims[first] = np.where(result.victim == -1, -1, result.victim * line_bytes)
    victim_dirty[first] = result.victim_dirty
    return hits, victims, victim_dirty


def _tagarray_replay(config: CacheConfig, trace, chunks=(), scalar_writes=False):
    """The vectorised per-set kernel, optionally replayed in chunks.

    With ``scalar_writes`` every chunk must be all loads or all stores,
    and is replayed with a scalar ``is_write``, the engine's call shape.
    """
    array = LruTagArray.from_config(config)
    addresses = np.array([address for address, _ in trace], dtype=np.int64)
    writes = np.array([is_write for _, is_write in trace], dtype=bool)
    lines = array.geometry.line_index(addresses)
    n = lines.size
    hits = np.empty(n, dtype=bool)
    victims = np.empty(n, dtype=np.int64)
    victim_dirty = np.empty(n, dtype=bool)
    bounds = [0, *sorted(int(c) % (n + 1) for c in chunks), n]
    for lo, hi in zip(bounds, bounds[1:]):
        is_write = writes[lo:hi]
        if scalar_writes and hi > lo:
            assert is_write.all() or not is_write.any()
            is_write = bool(is_write[0])
        result = array.replay(lines[lo:hi], is_write)
        hits[lo:hi], victims[lo:hi], victim_dirty[lo:hi] = _expand_runs(
            array, lines[lo:hi], result
        )
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


@pytest.mark.slow
@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([16, 64]),
    st.integers(1, 8),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.lists(
        st.tuples(st.lists(st.integers(0, 1 << 12), min_size=1, max_size=60), st.booleans()),
        min_size=1,
        max_size=5,
    ),
)
def test_tagarray_matches_cache_on_scalar_write_batches(
    line_bytes, num_sets, ways, write_back, write_allocate, batches
):
    """The engine's call shape: each batch all loads or all stores, with a
    scalar ``is_write``; state carries from batch to batch."""
    config = _reference_config(line_bytes, num_sets, ways, write_back, write_allocate)
    trace = [(address, is_write) for addresses, is_write in batches for address in addresses]
    bounds = np.cumsum([len(addresses) for addresses, _ in batches])[:-1]
    assert _tagarray_replay(config, trace, bounds, scalar_writes=True) == _cache_replay(
        config, trace
    )


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
    # The engine's call shape: load-only and store-only batches with a
    # scalar ``is_write``, over lines that repeat so runs collapse.
    blocks = [(rng.integers(0, 16, 40) * 32, bool(b % 2)) for b in range(6)]
    trace = [(int(address), is_write) for block, is_write in blocks for address in block]
    assert _tagarray_replay(
        config, trace, chunks=range(40, 240, 40), scalar_writes=True
    ) == _cache_replay(config, trace)


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
    array.replay(array.geometry.line_index(np.array(addresses, dtype=np.int64)), False)
    for address in addresses:
        assert cache.contains(address) == array.contains(address)
