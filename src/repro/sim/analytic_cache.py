"""Capacity/conflict-aware analytic cache model for the batched engine.

The wave-batched engine evaluates each static node once per wave over a
NumPy vector of threads, so it cannot call the event engine's
cycle-stamped :class:`~repro.memory.cache.SetAssociativeCache` one token
at a time without giving up its speedup.  This module provides the
batch form of the same L1 -> L2 -> DRAM walk: the L1 is classified a
whole wave at a time on the shared :mod:`repro.memory.tagcore` core, so
both engines agree on every hit/miss decision for an identical
line-address stream, and the few accesses that reach L2 go through the
hierarchy's own :class:`~repro.memory.cache.SetAssociativeCache`.

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
  processing order).

Not modelled: the MSHR entry limit — it affects timing only, never the
hit/miss classification — and the event engine's interleaving of
overlapped load/store phases; the fidelity benchmark measures the
residual cycle error both cause.

Counters land in the owning :class:`~repro.memory.hierarchy.
MemoryHierarchy`'s per-level stats objects, so ``SimulationResult.counters()``
and the energy pipeline see them exactly where the event engine's would
appear.

How the walk is split
---------------------
* **L1** is vectorised per batch: per-set LRU classification with one
  :class:`~repro.memory.tagcore.LruTagArray` replay, bank-queue timing
  from a closed-form per-bank recurrence, and MSHR-merge timing from the
  latest fill of each same-line run, found on the replay's set partition.
* **L2** is the hierarchy's ``l2``, the event engine's
  :class:`~repro.memory.cache.SetAssociativeCache`.  Only the L1 accesses
  that consult it — misses, dirty writebacks, write-throughs — walk it,
  one at a time; on cache-friendly configurations they are a tiny
  fraction of the stream.
* **DRAM** is whatever the L2 was built over: the hierarchy's private
  :class:`~repro.memory.dram.DramModel` on one core, or a
  :class:`~repro.memory.shared_dram.SharedDramPort` onto the one device
  a sharded run's cores share, so both engines queue on the same bank
  state.

Replaying a batched run's ``access_batch`` calls through a fresh
:class:`~repro.memory.hierarchy.MemoryHierarchy` one access at a time
gives the same completion cycles and counters
(``tests/sim/test_fidelity.py``, ``benchmarks/bench_batched_fidelity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessType
from repro.memory.tagcore import LruTagArray, group_spans
from repro.obs.trace import active_tracer

__all__ = ["AnalyticMemoryModel"]


class AnalyticMemoryModel:
    """A vectorised L1 over the hierarchy's L2, replayed over batches."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.l1_config = l1 = hierarchy.l1.config
        self.l1_tags = LruTagArray.from_config(l1)
        self.l1_stats = hierarchy.l1.stats
        # line address -> absolute cycle at which the outstanding fill lands.
        self.l1_mshr: dict[int, float] = {}
        # Each bank accepts one access per cycle; with the replay ordered
        # like the event engine's processing, the queue build-up on
        # oversubscribed banks evolves the same way there and here.
        self.l1_bank_free: list[float] = [0.0] * l1.banks
        self.l2 = hierarchy.l2

    def _prune_l1_mshr(self, cycle: float) -> None:
        """Drop landed fills (same size trigger as the event engine's MSHR).

        Prunes in place: the batch walk holds a direct reference to the
        mapping while it replays, so rebinding would strand its updates.
        """
        expired = [addr for addr, t in self.l1_mshr.items() if t <= cycle]
        for addr in expired:
            del self.l1_mshr[addr]

    # ------------------------------------------------------------------ L1
    def _l1_bank_times(self, lines: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        """Per-bank service times for a whole batch, in closed form.

        Each bank accepts one access per cycle, so along one bank's
        subsequence ``t_k = max(r_k, t_{k-1} + 1)`` — which unrolls to
        ``t_k = k + max(bank_free, cummax(r_j - j))``, a running maximum
        instead of a Python loop.  The carried ``bank_free`` state and the
        per-access truncated conflict-cycle counter match the event
        engine's one-access-at-a-time bank model exactly.
        """
        start = np.empty(lines.size, dtype=np.float64)
        geometry = self.l1_tags.geometry
        banks = self.l1_config.banks
        order, starts, ends = group_spans(geometry.bank_index(lines, banks), upper_bound=banks)
        sorted_banks = geometry.bank_index(lines[order[starts]], banks)
        for bank, lo, hi in zip(sorted_banks.tolist(), starts.tolist(), ends.tolist()):
            span = order[lo:hi]
            offsets = np.arange(hi - lo, dtype=np.float64)
            ready = cycles[span] - offsets
            ready[0] = max(ready[0], self.l1_bank_free[bank])
            np.maximum.accumulate(ready, out=ready)
            ready += offsets
            start[span] = ready
            self.l1_bank_free[bank] = float(ready[-1]) + 1.0
        self.l1_stats.bank_conflict_cycles += int(np.trunc(start - cycles).sum())
        return start

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

        Stages, each identical in effect to
        :meth:`~repro.memory.cache.SetAssociativeCache.access` called one
        access at a time:

        1. bank-queue service times for every access (closed-form);
        2. per-set LRU hit/miss/victim classification
           (:meth:`LruTagArray.replay`);
        3. a sequential walk over only the accesses that consult L2 —
           fills (with exact MSHR-merge and prune bookkeeping), dirty
           victim writebacks and forwarded write-throughs;
        4. hit completion times, vectorised per same-line run of the
           replay's set partition: the latest fill of the run's line at
           or before the run (or the carried MSHR entry) decides which of
           its hits merge into an MSHR entry and wait for it.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.float64)
        if np.ndim(is_store) == 0:
            writes = np.full(addresses.shape, bool(is_store))
        else:
            writes = np.asarray(is_store, dtype=bool)
        n = addresses.size
        if n == 0:
            return np.empty(0, dtype=np.float64)
        stats = self.l1_stats
        lines = self.l1_tags.geometry.line_address(addresses)
        start = self._l1_bank_times(lines, cycles)
        hit, victim_line, victim_dirty, order, run_starts = self.l1_tags.replay(lines, writes)

        hits = int(np.count_nonzero(hit))
        write_count = int(np.count_nonzero(writes))
        write_hits = int(np.count_nonzero(hit & writes))
        stats.read_hits += hits - write_hits
        stats.write_hits += write_hits
        stats.read_misses += (n - hits) - (write_count - write_hits)
        stats.write_misses += write_count - write_hits
        stats.writebacks += int(np.count_nonzero(victim_dirty))

        l1 = self.l1_config
        write_back, write_allocate = l1.write_back, l1.write_allocate
        # Accesses that install a fill and thereby publish an MSHR entry.
        fills = ~hit if write_allocate else ~hit & ~writes
        # Accesses that consult the next level one at a time: every miss,
        # plus write hits when the level is write-through.
        slow = ~hit if write_back else ~hit | writes

        # Stage-4 structure, built *before* stage 3 mutates the MSHR map.
        # A line maps to one set, so the replay's set partition already
        # holds each line's accesses in stream order, cut into same-line
        # runs; only a run's first access can fill.  Group the runs (not
        # the accesses) by line and find, per run, the latest fill at or
        # before it: a segmented running maximum over run positions.
        # Lines with no such fill take their carried MSHR entry.
        mshr = self.l1_mshr
        run_pos = order[run_starts]
        run_lines = lines[run_pos]
        by_line, line_starts, line_ends = group_spans(run_lines)
        segment = np.repeat(np.arange(line_starts.size), line_ends - line_starts)
        fill_at = np.where(fills[run_pos[by_line]], np.arange(by_line.size), -1)
        np.maximum.accumulate(fill_at, out=fill_at)
        in_batch = fill_at >= line_starts[segment]
        fill_pos = run_pos[by_line[np.maximum(fill_at, 0)]]
        carried = np.full(line_starts.size, -np.inf)
        if mshr:
            heads = run_lines[by_line[line_starts]].tolist()
            carried[:] = [mshr.get(line, -np.inf) for line in heads]

        # Stage 3: the L2-bound residue, walked sequentially in stream
        # order with the exact policy of ``SetAssociativeCache.access``.
        # ``complete`` starts as the plain hit service time; the walk
        # overwrites every L2-bound access and the stage-4 merge pass
        # lifts pending hits onto their outstanding fills.  L2 takes an
        # int cycle, so its counters stay integers.
        hit_latency = float(l1.hit_latency)
        complete = start + hit_latency
        fill_time = np.full(n, -np.inf, dtype=np.float64)
        prune_positions: list[int] = []
        prune_cycles: list[float] = []
        mshr_limit = 4 * l1.mshr_entries
        l2_access = self.l2.access
        load, store = AccessType.LOAD, AccessType.STORE
        tracer = active_tracer()
        walk_begin = tracer.clock() if tracer is not None else 0.0
        residue = np.flatnonzero(slow).tolist()
        for k in residue:
            line = int(lines[k])
            cycle = float(start[k])
            if hit[k] or (writes[k] and not write_allocate):
                # Write-through write hit / no-allocate write miss: the
                # write is forwarded, nothing is installed.
                complete[k] = max(cycle + hit_latency, l2_access(line, store, int(cycle)))
                continue
            outstanding = mshr.get(line)
            if outstanding is not None and outstanding > cycle:
                stats.mshr_merges += 1
                fill = outstanding
            else:
                fill = max(cycle + hit_latency, l2_access(line, load, int(cycle)))
                mshr[line] = fill
                if len(mshr) > mshr_limit:
                    self._prune_l1_mshr(cycle)
                    prune_positions.append(k)
                    prune_cycles.append(cycle)
            if victim_dirty[k]:
                l2_access(int(victim_line[k]), store, int(cycle))
            complete[k] = fill
            fill_time[k] = fill
        if tracer is not None:
            tracer.wall_event(
                "residue walk", walk_begin, args={"accesses": len(residue)}
            )

        # Stage 4: hit completions.  A hit on a line whose fill is still
        # outstanding merges and completes no earlier than the fill.  A
        # run's first access is a miss, which never merges, or a hit, for
        # which the fill at or before its run is the latest earlier one.
        run_fill = np.empty(by_line.size, dtype=np.float64)
        run_fill[by_line] = np.where(in_batch, fill_time[fill_pos], carried[segment])
        grouped_fill = np.repeat(run_fill, np.diff(np.r_[run_starts, n]))
        at_grouped = np.flatnonzero(grouped_fill > start[order])
        at_grouped = at_grouped[hit[order[at_grouped]]]
        chosen = order[at_grouped]
        previous_fill = grouped_fill[at_grouped]
        if prune_positions and chosen.size:
            # A prune between the fill and the hit may have dropped the
            # landed entry; mirror the one-at-a-time walk's visibility.
            run_source = np.empty(by_line.size, dtype=np.int64)
            run_source[by_line] = np.where(in_batch, fill_pos, -1)
            run_of = np.searchsorted(run_starts, at_grouped, side="right") - 1
            previous_position = run_source[run_of]
            at = np.asarray(prune_positions, dtype=np.int64)[None, :]
            when = np.asarray(prune_cycles, dtype=np.float64)[None, :]
            in_window = (at > previous_position[:, None]) & (at < chosen[:, None])
            dropped = np.any(in_window & (when >= previous_fill[:, None]), axis=1)
            chosen = chosen[~dropped]
            previous_fill = previous_fill[~dropped]
        stats.mshr_merges += int(chosen.size)
        if not write_back:
            fast = ~writes[chosen]
            chosen, previous_fill = chosen[fast], previous_fill[fast]
        complete[chosen] = np.maximum(complete[chosen], previous_fill)
        return complete
