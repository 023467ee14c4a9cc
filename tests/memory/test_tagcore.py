"""The shared tag core: geometry math and LRU equivalence properties.

The cross-engine fidelity contract rests on one fact: replaying a line
address stream through the vectorised per-set
:class:`~repro.memory.tagcore.LruTagArray` (the batched engines' L1, a
whole wave at once) or through :class:`~repro.memory.tagcore.LruTagStore`
one access at a time classifies every access exactly like
:class:`~repro.memory.cache.SetAssociativeCache` (the event engine's L1
and L2, and the batched engines' L2).  The hypothesis sweeps below check all three on
random mixed load/store traces over random geometries and write
policies — hit/miss sequence, victim sequence and writeback counts —
and are `slow`-marked like the other property sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import CacheConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.request import AccessType
from repro.memory.tagcore import CacheGeometry, LruTagArray, LruTagStore, group_spans


# ------------------------------------------------------------------ geometry
def test_geometry_scalar_and_vector_agree():
    geometry = CacheGeometry(line_bytes=128, num_sets=4, ways=2)
    addresses = np.array([0, 1, 127, 128, 513, 4096, 65535], dtype=np.int64)
    lines = geometry.line_address(addresses)
    sets = geometry.set_index(lines)
    tags = geometry.tag_of(lines)
    for i, address in enumerate(addresses.tolist()):
        line = geometry.line_address(address)
        assert lines[i] == line
        assert sets[i] == geometry.set_index(line)
        assert tags[i] == geometry.tag_of(line)
        assert line % 128 == 0
        assert 0 <= sets[i] < 4


def test_lru_victim_is_least_recently_used():
    store = LruTagStore(CacheGeometry(line_bytes=64, num_sets=1, ways=2))
    assert store.install(0, dirty=False) is None
    assert store.install(64, dirty=True) is None
    store.touch(0)  # line 0 becomes MRU; line 64 is now the LRU victim
    victim = store.install(128, dirty=False)
    assert victim is not None and victim.line_addr == 64 and victim.dirty


def test_flush_counts_dirty_lines():
    store = LruTagStore(CacheGeometry(line_bytes=64, num_sets=2, ways=2))
    store.install(0, dirty=True)
    store.install(64, dirty=False)
    store.install(128, dirty=True)
    assert store.resident_lines() == 3
    assert store.flush() == 2
    assert store.resident_lines() == 0


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


def _tagstore_replay(config: CacheConfig, trace):
    """The scalar tag-core walk: LruTagStore + the write policy.

    Returns the per-access hit, victim-line (``-1`` if none) and
    victim-dirty sequences, the same observables
    :meth:`LruTagArray.replay` reports.
    """
    store = LruTagStore.from_config(config)
    hits, victims, victim_dirty = [], [], []
    for address, is_write in trace:
        line_addr = store.geometry.line_address(address)
        entry = store.touch(line_addr)
        if entry is not None:
            hits.append(True)
            victims.append(-1)
            victim_dirty.append(False)
            if is_write and config.write_back:
                entry.dirty = True
            continue
        hits.append(False)
        if is_write and not config.write_allocate:
            victims.append(-1)
            victim_dirty.append(False)
            continue  # write-no-allocate: the line is not filled
        victim = store.install(line_addr, dirty=is_write and config.write_allocate)
        victims.append(-1 if victim is None else victim.line_addr)
        victim_dirty.append(victim is not None and victim.dirty)
    return hits, victims, victim_dirty


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
        hits[lo:hi] = result.hit
        victims[lo:hi] = result.victim_line
        victim_dirty[lo:hi] = result.victim_dirty
    return hits.tolist(), victims.tolist(), victim_dirty.tolist()


def _cache_replay(config: CacheConfig, trace) -> list[bool]:
    """The event-engine classification, observed through the stats deltas."""
    cache = SetAssociativeCache(config)
    hits = []
    for cycle, (address, is_write) in enumerate(trace):
        before = cache.stats.hits
        cache.access(address, AccessType.STORE if is_write else AccessType.LOAD, cycle)
        hits.append(cache.stats.hits != before)
    return hits


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
)
def test_tagstore_matches_set_associative_cache(
    line_bytes, num_sets, ways, write_back, write_allocate, trace
):
    """Identical hit/miss sequences on random traces, geometries and
    write policies — the property the exact cross-engine miss-count
    equality rests on."""
    config = _reference_config(line_bytes, num_sets, ways, write_back, write_allocate)
    hits, _, _ = _tagstore_replay(config, trace)
    assert hits == _cache_replay(config, trace)


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
def test_tagarray_matches_tagstore_and_cache(
    line_bytes, num_sets, ways, write_back, write_allocate, trace, chunks
):
    """The vectorised per-set kernel, the scalar tag-core walk and the
    event engine's cache classify any random mixed load/store stream
    identically: hit/miss sequence (all three), victim and victim-dirty
    sequences (both tag-core walks), and the writeback count the cache's
    stats record.  Splitting the replay into chunks must not change
    anything — state carries across batches."""
    config = _reference_config(line_bytes, num_sets, ways, write_back, write_allocate)
    hits, victims, victim_dirty = _tagstore_replay(config, trace)
    array_hits, array_victims, array_dirty = _tagarray_replay(config, trace, chunks)
    assert array_hits == hits
    assert array_victims == victims
    assert array_dirty == victim_dirty
    assert array_hits == _cache_replay(config, trace)
    cache = SetAssociativeCache(config)
    for cycle, (address, is_write) in enumerate(trace):
        cache.access(address, AccessType.STORE if is_write else AccessType.LOAD, cycle)
    assert cache.stats.writebacks == sum(victim_dirty)


def test_tagarray_three_way_agreement_on_thrashing_trace():
    """Fast-lane pin of the 3-way equivalence on a deterministic
    direct-mapped thrashing trace with mixed loads and stores."""
    config = _reference_config(64, 2, 1, True, True)
    rng = np.random.default_rng(3)
    trace = [
        (int(rng.integers(0, 1024)), bool(rng.integers(0, 2))) for _ in range(300)
    ]
    hits, victims, victim_dirty = _tagstore_replay(config, trace)
    assert _tagarray_replay(config, trace, chunks=(97, 201)) == (hits, victims, victim_dirty)
    assert hits == _cache_replay(config, trace)
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
def test_tagstore_contains_matches_cache_residency(line_bytes, num_sets, ways, addresses):
    """After any load-only trace, both models agree on which addresses
    are resident (not just on the hit/miss sequence)."""
    config = _reference_config(line_bytes, num_sets, ways, True, True)
    cache = SetAssociativeCache(config)
    store = LruTagStore.from_config(config)
    for cycle, address in enumerate(addresses):
        cache.access(address, AccessType.LOAD, cycle)
        line_addr = store.geometry.line_address(address)
        if store.touch(line_addr) is None:
            store.install(line_addr, dirty=False)
    for address in addresses:
        assert cache.contains(address) == store.contains(address)
