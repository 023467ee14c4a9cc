"""Capacity/conflict-aware analytic cache model for the batched engine.

The wave-batched engine evaluates each static node once per wave over a
NumPy vector of threads, so it cannot call the event engine's
cycle-stamped :class:`~repro.memory.cache.SetAssociativeCache` one token
at a time without giving up its speedup.  This module provides the
analytic twin: the same L1 -> L2 -> DRAM classification — built on the
shared :mod:`repro.memory.tagcore` tag/set/victim core, so both engines
agree on every hit/miss decision for an identical line-address stream —
replayed over a whole wave of accesses at once.

What is modelled (mirroring ``MemoryHierarchy`` exactly):

* set-associative LRU at both levels: compulsory, capacity *and*
  conflict misses;
* write-back + write-allocate (and the write-through / no-allocate
  policy of the Fermi L1, should a sweep configure it): a store miss is
  an L1 ``write_miss`` whose fill is a *read* of L2 (read-for-ownership),
  never an L2 write — exactly the counter mapping the event engine's
  hierarchy records for stores;
* dirty evictions: an L1 writeback is an L2 store access at the victim's
  line address, an L2 dirty eviction is a DRAM write;
* MSHR merges: an access to a line whose fill is still outstanding
  completes when the fill returns instead of issuing a duplicate
  next-level access (timestamps come from the batched engine's analytic
  issue cycles);
* cache bank serialisation: each bank accepts one access per cycle, so
  an oversubscribed bank builds the same queue the event engine's
  cycle-stamped bank model builds (the replay order matches its
  processing order);
* DRAM bank/channel queueing with the same line-interleaved mapping as
  :class:`~repro.memory.dram.DramModel`, plus the multi-core contention
  term (``(cores - 1) * bank_busy_cycles`` expected queueing per access
  when several cores share the device).

Not modelled: the MSHR entry limit — it affects timing only, never the
hit/miss classification — and the event engine's interleaving of
overlapped load/store phases; the fidelity benchmark measures the
residual cycle error both cause.

Counters are mirrored into the owning :class:`~repro.memory.hierarchy.
MemoryHierarchy`'s per-level stats objects, so ``SimulationResult.counters()``
and the energy pipeline see the analytic classification exactly where
the event engine's exact one would appear.

Two replay implementations
--------------------------
The policy walk exists twice, counter- and cycle-identically:

* ``vectorised=True`` (the default) decomposes each batch per L1 set and
  classifies it with one :class:`~repro.memory.tagcore.LruTagArray`
  replay, computes bank-queue timing with a closed-form per-bank
  recurrence, and resolves MSHR-merge timing with a per-line
  previous-fill gather — only the accesses that reach L2 (misses,
  writebacks, write-throughs) still walk the exact sequential model, and
  on cache-friendly configurations those are a tiny fraction of the
  stream.
* ``vectorised=False`` is the original one-access-at-a-time Python walk,
  kept as the reference implementation the vectorised kernel is tested
  against (``tests/sim/test_fidelity.py``, ``tests/memory/test_tagcore.py``).
"""

from __future__ import annotations

import numpy as np

from repro.config.system import MemorySystemConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tagcore import LruTagArray, LruTagStore, group_spans
from repro.obs.trace import active_tracer

__all__ = ["AnalyticMemoryModel"]


class _AnalyticLevel:
    """One cache level: shared tag core + policy flags + counter sink."""

    __slots__ = (
        "tags",
        "array",
        "stats",
        "hit_latency",
        "write_back",
        "write_allocate",
        "mshr",
        "mshr_entries",
        "banks",
        "line_bytes",
        "bank_free",
    )

    def __init__(self, config, stats, vectorised: bool = False) -> None:
        # The scalar store backs the sequential walk (always built: L2
        # replays its small miss-derived stream through it even when L1
        # classification is vectorised); the tag array holds the same
        # state for the per-set vectorised replay.
        self.tags = LruTagStore.from_config(config)
        self.array = LruTagArray.from_config(config) if vectorised else None
        self.stats = stats
        self.hit_latency = float(config.hit_latency)
        self.write_back = bool(config.write_back)
        self.write_allocate = bool(config.write_allocate)
        # line address -> absolute cycle at which the outstanding fill lands.
        self.mshr: dict[int, float] = {}
        self.mshr_entries = int(config.mshr_entries)
        # Each bank accepts one access per cycle; with the replay ordered
        # like the event engine's processing, the queue build-up on
        # oversubscribed banks evolves the same way there and here.
        self.banks = int(config.banks)
        self.line_bytes = int(config.line_bytes)
        self.bank_free: list[float] = [0.0] * self.banks

    def prune_mshr(self, cycle: float) -> None:
        """Drop landed fills (same size trigger as the event engine's MSHR).

        Prunes in place: the batch walk holds a direct reference to the
        mapping while it replays, so rebinding would strand its updates.
        """
        expired = [addr for addr, t in self.mshr.items() if t <= cycle]
        for addr in expired:
            del self.mshr[addr]

    def bank_ready(self, line_addr: int, cycle: float) -> float:
        bank = (line_addr // self.line_bytes) % self.banks
        start = self.bank_free[bank]
        if start < cycle:
            start = cycle
        else:
            self.stats.bank_conflict_cycles += int(start - cycle)
        self.bank_free[bank] = start + 1.0
        return start


class AnalyticMemoryModel:
    """Two-level LRU hierarchy + DRAM replayed over batches of accesses."""

    def __init__(
        self,
        config: MemorySystemConfig,
        hierarchy: MemoryHierarchy,
        dram_contention: int = 1,
        vectorised: bool = True,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.vectorised = bool(vectorised)
        self.l1 = _AnalyticLevel(config.l1, hierarchy.l1.stats, vectorised=self.vectorised)
        self.l2 = _AnalyticLevel(config.l2, hierarchy.l2.stats)
        self.dram_stats = hierarchy.dram.stats
        dram = config.dram
        self.dram_latency = float(dram.access_latency)
        self.bank_busy = float(dram.bank_busy_cycles)
        self.dram_channels = dram.channels
        self.dram_banks = dram.banks_per_channel
        self.dram_line_bytes = config.l2.line_bytes
        # With ``dram_contention`` cores sharing the device, each access
        # additionally expects to queue behind one bank burst per
        # contending core (the analytic twin of the shared bank state the
        # event engine models exactly).
        self.contention_queue = (max(1, int(dram_contention)) - 1) * float(dram.bank_busy_cycles)
        self._bank_free: dict[int, float] = {}

    # ------------------------------------------------------------------- DRAM
    def _dram_access(self, line_addr: int, is_write: bool, cycle: float) -> float:
        line = line_addr // self.dram_line_bytes
        channel = line % self.dram_channels
        bank = (line // self.dram_channels) % self.dram_banks
        slot = channel * self.dram_banks + bank
        start = max(cycle, self._bank_free.get(slot, 0.0))
        queued = (start - cycle) + self.contention_queue
        start += self.contention_queue
        self.dram_stats.queue_cycles += int(queued)
        self._bank_free[slot] = start + self.bank_busy
        if is_write:
            self.dram_stats.writes += 1
        else:
            self.dram_stats.reads += 1
        return start + self.dram_latency

    # ------------------------------------------------------------ cache levels
    def _level_access(self, level, next_access, line_addr, is_write, cycle):
        """One access to ``level``; misses and writebacks go to ``next_access``.

        The single copy of the policy walk (hit/merge/miss/fill/victim)
        shared by both levels — the same structure as
        :meth:`repro.memory.cache.SetAssociativeCache.access`, with the
        next level injected as a ``(line_addr, is_write, cycle)`` callable.
        """
        # Re-align to this level's own line size (an L1 miss arrives
        # L1-aligned; with l1.line_bytes < l2.line_bytes several L1 lines
        # share one L2 line) — the event engine's cache does the same.
        line_addr = level.tags.geometry.line_address(line_addr)
        cycle = level.bank_ready(line_addr, cycle)
        entry = level.tags.touch(line_addr)
        if entry is not None:
            outstanding = level.mshr.get(line_addr)
            pending = outstanding is not None and outstanding > cycle
            if pending:
                level.stats.mshr_merges += 1
            if is_write:
                level.stats.write_hits += 1
                if level.write_back:
                    entry.dirty = True
                    complete = cycle + level.hit_latency
                    return max(complete, outstanding) if pending else complete
                # write-through: forward the write to the next level
                return max(
                    cycle + level.hit_latency,
                    next_access(line_addr, True, cycle),
                )
            level.stats.read_hits += 1
            complete = cycle + level.hit_latency
            return max(complete, outstanding) if pending else complete

        if is_write:
            level.stats.write_misses += 1
            if not level.write_allocate:
                return max(
                    cycle + level.hit_latency,
                    next_access(line_addr, True, cycle),
                )
        else:
            level.stats.read_misses += 1

        outstanding = level.mshr.get(line_addr)
        if outstanding is not None and outstanding > cycle:
            level.stats.mshr_merges += 1
            fill = outstanding
        else:
            # Read-for-ownership: the fill *reads* the next level even for
            # a store miss under write-allocate.
            fill = max(
                cycle + level.hit_latency,
                next_access(line_addr, False, cycle),
            )
            level.mshr[line_addr] = fill
            if len(level.mshr) > 4 * level.mshr_entries:
                level.prune_mshr(cycle)
        victim = level.tags.install(line_addr, is_write and level.write_allocate)
        if victim is not None and victim.dirty:
            level.stats.writebacks += 1
            next_access(victim.line_addr, True, cycle)
        return fill

    def _l2_access(self, line_addr: int, is_write: bool, cycle: float) -> float:
        return self._level_access(self.l2, self._dram_access, line_addr, is_write, cycle)

    def _l1_access(self, line_addr: int, is_write: bool, cycle: float) -> float:
        return self._level_access(self.l1, self._l2_access, line_addr, is_write, cycle)

    # ------------------------------------------------------------------ batch
    def access_batch(
        self,
        addresses: np.ndarray,
        cycles: np.ndarray,
        is_store: "bool | np.ndarray",
    ) -> np.ndarray:
        """Classify one replay-ordered batch of scalar accesses.

        ``addresses`` and ``cycles`` must already be in replay order (the
        caller sorts them into the event engine's processing order where
        that order is derivable); the returned absolute completion cycles
        are aligned with the inputs.  ``is_store`` is a scalar for a
        homogeneous batch or a per-access boolean vector for a mixed
        load/store stream.

        With ``vectorised=True`` the whole L1 walk (bank queues, per-set
        LRU classification, MSHR-merge timing) runs as NumPy passes and
        only the L2-bound residue is walked sequentially; with
        ``vectorised=False`` every access takes the reference Python walk.
        Both paths produce identical counters and identical completion
        cycles.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.float64)
        if np.ndim(is_store) == 0:
            writes = np.full(addresses.shape, bool(is_store))
        else:
            writes = np.asarray(is_store, dtype=bool)
        if self.vectorised:
            return self._access_batch_vectorised(addresses, cycles, writes)
        geometry = self.l1.tags.geometry
        lines = geometry.line_address(addresses).tolist()
        out = np.empty(len(lines), dtype=np.float64)
        l1_access = self._l1_access
        for i, (line, cycle, write) in enumerate(
            zip(lines, cycles.tolist(), writes.tolist())
        ):
            out[i] = l1_access(line, bool(write), cycle)
        return out

    # ------------------------------------------------------- vectorised walk
    def _bank_times_vectorised(
        self, level: _AnalyticLevel, lines: np.ndarray, cycles: np.ndarray
    ) -> np.ndarray:
        """Per-bank service times for a whole batch, in closed form.

        Each bank accepts one access per cycle, so along one bank's
        subsequence ``t_k = max(r_k, t_{k-1} + 1)`` — which unrolls to
        ``t_k = k + max(bank_free, cummax(r_j - j))``, a running maximum
        instead of a Python loop.  The carried ``bank_free`` state and the
        per-access truncated conflict-cycle counter match the sequential
        walk exactly.
        """
        start = np.empty(lines.size, dtype=np.float64)
        geometry = level.tags.geometry
        order, starts, ends = group_spans(
            geometry.bank_index(lines, level.banks), upper_bound=level.banks
        )
        sorted_banks = geometry.bank_index(lines[order[starts]], level.banks)
        for bank, lo, hi in zip(sorted_banks.tolist(), starts.tolist(), ends.tolist()):
            span = order[lo:hi]
            offsets = np.arange(hi - lo, dtype=np.float64)
            ready = cycles[span] - offsets
            ready[0] = max(ready[0], level.bank_free[bank])
            np.maximum.accumulate(ready, out=ready)
            ready += offsets
            start[span] = ready
            level.bank_free[bank] = float(ready[-1]) + 1.0
        level.stats.bank_conflict_cycles += int(np.trunc(start - cycles).sum())
        return start

    def _access_batch_vectorised(
        self, addresses: np.ndarray, cycles: np.ndarray, writes: np.ndarray
    ) -> np.ndarray:
        """The per-set vectorised L1 walk (see the module docstring).

        Stages, each identical in effect to the sequential walk:

        1. bank-queue service times for every access (closed-form);
        2. per-set LRU hit/miss/victim classification
           (:meth:`LruTagArray.replay`);
        3. a sequential walk over only the accesses that consult L2 —
           fills (with exact MSHR-merge and prune bookkeeping), dirty
           victim writebacks and forwarded write-throughs;
        4. hit completion times, vectorised: a per-line gather of the
           most recent outstanding fill decides which hits merge into an
           MSHR entry and wait for it.
        """
        n = addresses.size
        if n == 0:
            return np.empty(0, dtype=np.float64)
        level = self.l1
        stats = level.stats
        lines = level.array.geometry.line_address(addresses)
        start = self._bank_times_vectorised(level, lines, cycles)
        hit, victim_line, victim_dirty = level.array.replay(lines, writes)

        hits = int(np.count_nonzero(hit))
        write_count = int(np.count_nonzero(writes))
        write_hits = int(np.count_nonzero(hit & writes))
        stats.read_hits += hits - write_hits
        stats.write_hits += write_hits
        stats.read_misses += (n - hits) - (write_count - write_hits)
        stats.write_misses += write_count - write_hits
        stats.writebacks += int(np.count_nonzero(victim_dirty))

        write_back, write_allocate = level.write_back, level.write_allocate
        # Accesses that install a fill and thereby publish an MSHR entry.
        fills = ~hit if write_allocate else ~hit & ~writes
        # Accesses that consult the next level one at a time: every miss,
        # plus write hits when the level is write-through.
        slow = ~hit if write_back else ~hit | writes

        # Stage-4 gather structure, built *before* stage 3 mutates the
        # MSHR map: for each access, the batch position of the latest
        # earlier fill of the same line (or the carried fill time).  The
        # grouping key is the dense line index, whose small range keeps
        # the partition on the radix-sort path.
        mshr = level.mshr
        line_keys = lines // level.line_bytes
        order, line_starts, line_ends = group_spans(
            line_keys, upper_bound=int(line_keys.max()) + 1
        )
        grouped_lines = lines[order]
        counts = line_ends - line_starts
        carried = np.fromiter(
            (mshr.get(int(line), -np.inf) for line in grouped_lines[line_starts].tolist()),
            dtype=np.float64,
            count=line_starts.size,
        )
        fill_positions = np.where(fills[order], np.arange(n), -1)
        np.maximum.accumulate(fill_positions, out=fill_positions)
        previous_fill_idx = np.empty(n, dtype=np.int64)
        previous_fill_idx[0] = -1
        previous_fill_idx[1:] = fill_positions[:-1]
        in_batch = previous_fill_idx >= np.repeat(line_starts, counts)

        # Stage 3: the L2-bound residue, walked sequentially in stream
        # order with the exact policy of ``_level_access``.  ``complete``
        # starts as the plain hit service time; the sequential walk
        # overwrites every L2-bound access and the stage-4 merge pass
        # lifts pending hits onto their outstanding fills.
        hit_latency = level.hit_latency
        complete = start + hit_latency
        fill_time = np.full(n, -np.inf, dtype=np.float64)
        prune_positions: list[int] = []
        prune_cycles: list[float] = []
        mshr_limit = 4 * level.mshr_entries
        next_access = self._l2_access
        tracer = active_tracer()
        walk_begin = tracer.clock() if tracer is not None else 0.0
        residue = np.flatnonzero(slow).tolist()
        for k in residue:
            line = int(lines[k])
            cycle = float(start[k])
            if hit[k] or (writes[k] and not write_allocate):
                # Write-through write hit / no-allocate write miss: the
                # write is forwarded, nothing is installed.
                complete[k] = max(cycle + hit_latency, next_access(line, True, cycle))
                continue
            outstanding = mshr.get(line)
            if outstanding is not None and outstanding > cycle:
                stats.mshr_merges += 1
                fill = outstanding
            else:
                fill = max(cycle + hit_latency, next_access(line, False, cycle))
                mshr[line] = fill
                if len(mshr) > mshr_limit:
                    level.prune_mshr(cycle)
                    prune_positions.append(k)
                    prune_cycles.append(cycle)
            if victim_dirty[k]:
                next_access(int(victim_line[k]), True, cycle)
            complete[k] = fill
            fill_time[k] = fill
        if tracer is not None:
            tracer.wall_event(
                "residue walk", walk_begin, args={"accesses": len(residue)}
            )

        # Stage 4: hit completions.  A hit on a line whose fill is still
        # outstanding merges and completes no earlier than the fill.
        gathered = fill_time[order][np.maximum(previous_fill_idx, 0)]
        previous_fill = np.empty(n, dtype=np.float64)
        previous_fill[order] = np.where(in_batch, gathered, np.repeat(carried, counts))
        pending = hit & (previous_fill > start)
        if prune_positions and pending.any():
            # A prune between the fill and the hit may have dropped the
            # landed entry; mirror the sequential walk's visibility.
            previous_position = np.full(n, -1, dtype=np.int64)
            previous_position[order] = np.where(
                in_batch, order[np.maximum(previous_fill_idx, 0)], -1
            )
            chosen = np.flatnonzero(pending)
            at = np.asarray(prune_positions, dtype=np.int64)[None, :]
            when = np.asarray(prune_cycles, dtype=np.float64)[None, :]
            in_window = (at > previous_position[chosen][:, None]) & (
                at < chosen[:, None]
            )
            dropped = np.any(
                in_window & (when >= previous_fill[chosen][:, None]), axis=1
            )
            pending[chosen[dropped]] = False
        stats.mshr_merges += int(np.count_nonzero(pending))
        fast = hit if write_back else hit & ~writes
        merging = pending & fast
        complete[merging] = np.maximum(complete[merging], previous_fill[merging])
        return complete
