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
* **L1** is vectorised per batch and works one same-line run at a time.
  Each address is divided once, into its line index, which gives the
  set, the bank and the line address.  The bank queues are timed by
  :func:`~repro.memory.fifo.fifo_starts`, with one gather of the stream
  into bank order and one scatter back.  One
  :class:`~repro.memory.tagcore.LruTagArray` replay classifies each run
  of consecutive same-line accesses of one set: hit, victim and
  victim-dirty belong to the run's first access, and every later access
  of the run is a hit.  The hit/miss counters, the L2-bound
  residue and the MSHR entry that serves each run all come from the
  runs.  Only the bank times, the completion cycles and the merge check
  (is the run's fill still outstanding at this access's bank slot?) are
  stream-length.
* **L2** is the hierarchy's ``l2``, the event engine's
  :class:`~repro.memory.cache.SetAssociativeCache`.  Only the L1 accesses
  that consult it — the missed runs' first accesses with their dirty
  writebacks, and write-throughs — walk it, one at a time, in stream
  order; on cache-friendly configurations they are a tiny fraction of
  the stream.  The MSHR map is walked there too, and each prune records
  which entries it dropped, so a later hit merges only into an entry the
  one-access-at-a-time walk would still hold.
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

from repro.memory.fifo import fifo_starts
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessType
from repro.memory.tagcore import LruTagArray, group_spans, span_lengths
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
        self.l1_bank_free = np.zeros(l1.banks)
        self.l2 = hierarchy.l2

    def _prune_l1_mshr(self, cycle: float) -> list[int]:
        """Drop landed fills (same size trigger as the event engine's MSHR)
        and return the line addresses dropped.

        Prunes in place: the batch walk holds a direct reference to the
        mapping while it replays, so rebinding would strand its updates.
        """
        expired = [addr for addr, t in self.l1_mshr.items() if t <= cycle]
        for addr in expired:
            del self.l1_mshr[addr]
        return expired

    # ------------------------------------------------------------------ L1
    def _l1_bank_times(self, lines: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        """Per-bank service times for a whole batch, in closed form.

        Each bank is a FIFO accepting one access per cycle
        (:func:`~repro.memory.fifo.fifo_starts`, on the stream gathered into
        bank order once and scattered back once).  The carried ``bank_free``
        state and the truncated conflict-cycle counter match the event
        engine's one-access-at-a-time bank model exactly.
        """
        banks = self.l1_config.banks
        geometry = self.l1_tags.geometry
        order, starts, ends = group_spans(geometry.bank_index(lines, banks), upper_bound=banks)
        bank_of = geometry.bank_index(lines[order[starts]], banks)
        free = self.l1_bank_free
        ready = fifo_starts(cycles[order], starts.tolist(), free[bank_of].tolist(), 1)
        free[bank_of] = ready[ends - 1] + 1.0
        start = np.empty_like(ready)
        start[order] = ready
        del ready, order
        waited = start - cycles
        self.l1_stats.bank_conflict_cycles += int(np.trunc(waited, out=waited).sum())
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
        2. per-set LRU hit/miss/victim classification of every same-line
           run (:meth:`LruTagArray.replay`); the hit and miss counters
           follow from the runs;
        3. a sequential walk over only the accesses that consult L2 —
           the missed runs' first accesses (with exact MSHR-merge and
           prune bookkeeping, dirty victim writebacks) and forwarded
           write-throughs;
        4. hit completion times: each run is served by its line's latest
           MSHR entry at or before the run (the walk's fill, or the entry
           carried from an earlier batch), and a hit issued before that
           entry lands, while the entry is still held, merges into it and
           completes no earlier than the fill.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.float64)
        n = addresses.size
        if n == 0:
            return np.empty(0, dtype=np.float64)
        writes = np.broadcast_to(np.asarray(is_store, dtype=bool), addresses.shape)
        l1, stats, mshr = self.l1_config, self.l1_stats, self.l1_mshr
        write_back, write_allocate = l1.write_back, l1.write_allocate
        lines = self.l1_tags.geometry.line_index(addresses)
        start = self._l1_bank_times(lines, cycles)
        tags = self.l1_tags.replay(lines, is_store)
        del lines
        order, run_starts = tags.order, tags.run_starts
        nruns = run_starts.size
        run_pos = order[run_starts]
        run_lines = tags.line * l1.line_bytes
        missed = np.flatnonzero(~tags.hit)
        miss_pos = run_pos[missed]

        write_count = int(np.count_nonzero(writes))
        write_misses = int(np.count_nonzero(writes[miss_pos]))
        write_hits = write_count - write_misses
        stats.read_hits += n - missed.size - write_hits
        stats.write_hits += write_hits
        stats.read_misses += missed.size - write_misses
        stats.write_misses += write_misses
        stats.writebacks += int(np.count_nonzero(tags.victim_dirty))

        # Stage-4 structure, built *before* stage 3 mutates the MSHR map.
        # A line maps to one set, so the replay's runs of one line are in
        # stream order.  Group the runs by line and find, per run, the
        # latest filling run at or before it: a segmented running maximum
        # over run positions.  MSHR entries are numbered: entry ``r`` is
        # the fill of run ``r``, entry ``nruns + g`` the entry that line
        # group ``g`` carries in from an earlier batch.
        fills = ~tags.hit if write_allocate else ~tags.hit & ~writes[run_pos]
        by_line, line_starts, line_ends = group_spans(run_lines)
        group = np.repeat(np.arange(line_starts.size), line_ends - line_starts)
        latest = np.where(fills[by_line], np.arange(nruns), -1)
        np.maximum.accumulate(latest, out=latest)
        entry = np.empty(nruns, dtype=np.int64)
        entry[by_line] = np.where(
            latest >= line_starts[group], by_line[np.maximum(latest, 0)], nruns + group
        )
        del group, latest
        entry_fill = np.full(nruns + line_starts.size, -np.inf)
        # Where the walk's prunes dropped each entry (``n``: never).
        entry_dropped = np.full(entry_fill.size, n, dtype=np.int64)
        # Line address -> number of the entry the MSHR map holds for it.
        held: dict[int, int] = {}
        if mshr:
            heads = run_lines[by_line[line_starts]].tolist()
            for g, line in enumerate(heads, start=nruns):
                carried = mshr.get(line)
                if carried is not None:
                    entry_fill[g] = carried
                    held[line] = g

        # Stage 3: the L2-bound residue, walked sequentially in stream
        # order with the exact policy of ``SetAssociativeCache.access``:
        # every missed run's first access, plus every write when the
        # level is write-through.  L2 takes an int cycle, so its counters
        # stay integers.
        if write_back:
            residue, residue_run = miss_pos, missed
        else:
            forwarded = np.setdiff1d(np.flatnonzero(writes), miss_pos, assume_unique=True)
            residue = np.concatenate((miss_pos, forwarded))
            residue_run = np.concatenate((missed, np.full(forwarded.size, -1)))
        in_stream = np.argsort(residue, kind="stable")
        residue, residue_run = residue[in_stream], residue_run[in_stream]
        runs = residue_run.tolist()
        safe_run = np.maximum(residue_run, 0)
        victims = np.where(tags.victim_dirty[safe_run], tags.victim[safe_run], -1)
        hit_latency = float(l1.hit_latency)
        mshr_limit = 4 * l1.mshr_entries
        l2_access = self.l2.access
        load, store = AccessType.LOAD, AccessType.STORE
        merged: list[tuple[int, int]] = []
        done: list[float] = []
        tracer = active_tracer()
        walk_begin = tracer.clock() if tracer is not None else 0.0
        for k, r, line, cycle, is_write, victim in zip(
            residue.tolist(),
            runs,
            (addresses[residue] // l1.line_bytes * l1.line_bytes).tolist(),
            start[residue].tolist(),
            writes[residue].tolist(),
            (victims * l1.line_bytes).tolist(),
        ):
            if r < 0 or (is_write and not write_allocate):
                # Write-through write hit / no-allocate write miss: the
                # write is forwarded, nothing is installed.
                done.append(max(cycle + hit_latency, l2_access(line, store, int(cycle))))
                continue
            outstanding = mshr.get(line)
            if outstanding is not None and outstanding > cycle:
                stats.mshr_merges += 1
                fill = outstanding
                merged.append((r, held[line]))
            else:
                fill = max(cycle + hit_latency, l2_access(line, load, int(cycle)))
                mshr[line] = fill
                held[line] = r
                entry_fill[r] = fill
                if len(mshr) > mshr_limit:
                    for gone in self._prune_l1_mshr(cycle):
                        number = held.pop(gone, None)
                        if number is not None:
                            entry_dropped[number] = k
            if victim >= 0:
                l2_access(victim, store, int(cycle))
            done.append(fill)
        if tracer is not None:
            tracer.wall_event("residue walk", walk_begin, args={"accesses": len(done)})
        if merged:
            # A missed run that merged is served by the entry it merged into.
            alias = np.arange(entry_fill.size)
            alias[[r for r, _ in merged]] = [number for _, number in merged]
            entry = alias[entry]

        # Stage 4: hit completions.  A hit merges when its run's entry
        # lands after the hit's bank slot and no prune dropped the entry
        # before the hit; it then completes no earlier than the fill.  A
        # miss never merges here: the walk above served it.  Each run's
        # entry fill is spread over its accesses in set-grouped order and
        # scattered once into stream order.
        run_length = span_lengths(run_starts, n)
        pending = np.repeat(entry_fill[entry], run_length)
        pending[run_starts[missed]] = -np.inf
        dropped = entry_dropped[entry]
        if bool((dropped < n).any()):
            pending[order >= np.repeat(dropped, run_length)] = -np.inf
        del dropped, run_length
        fill = np.empty(n)
        fill[order] = pending
        del pending
        stats.mshr_merges += int(np.count_nonzero(fill > start))
        start += hit_latency
        np.maximum(start, fill, out=start)
        start[residue] = done
        return start
