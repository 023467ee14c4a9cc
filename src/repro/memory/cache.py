"""Set-associative cache timing model with banks, LRU replacement and MSHRs.

The model tracks tags only (data lives in :class:`repro.memory.image.MemoryImage`).
It answers "at which cycle does this access complete, and which level
serviced it" while recording the statistics the power model needs
(hits/misses/writebacks per level).

The line/set/bank address math is :class:`repro.memory.tagcore.CacheGeometry`,
shared with the batched engines' vectorised L1
(:class:`repro.memory.tagcore.LruTagArray`), so both engines classify an
identical line-address stream identically.  Each set's tag state is an
insertion-ordered ``dict`` of line address -> dirty bit, least recently
used first: a hit re-inserts the line at the back, and the victim of a
full set is the first key.  Entries carry the full line address, so a
victim's writeback goes to the victim's actual address.  On top of the
tags sit the event-engine specifics — cycle-stamped bank contention,
MSHR merge timing, and the write policies.

Two policies from the paper are supported:

* write-back + write-allocate (the CGRA cores, Table 2), and
* write-through + write-no-allocate (the Fermi baseline L1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config.system import CacheConfig
from repro.errors import MemoryModelError
from repro.memory.request import AccessType
from repro.memory.tagcore import CacheGeometry

__all__ = ["CacheStats", "SetAssociativeCache"]


@dataclass
class CacheStats:
    """Event counters of one cache level."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0
    mshr_merges: int = 0
    bank_conflict_cycles: int = 0

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def as_dict(self) -> dict[str, int]:
        return {
            "read_hits": self.read_hits,
            "read_misses": self.read_misses,
            "write_hits": self.write_hits,
            "write_misses": self.write_misses,
            "writebacks": self.writebacks,
            "mshr_merges": self.mshr_merges,
            "bank_conflict_cycles": self.bank_conflict_cycles,
        }


class SetAssociativeCache:
    """An LRU set-associative cache level.

    Parameters
    ----------
    config:
        Geometry, latency and policy of the level.
    next_level_access:
        Callable ``(line_address, is_write, cycle) -> complete_cycle`` used
        on misses (and write-throughs / writebacks).  ``None`` models a
        cache backed by an ideal memory that responds immediately.
    """

    def __init__(
        self,
        config: CacheConfig,
        next_level_access: Optional[Callable[[int, bool, int], int]] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.next_level_access = next_level_access
        self.stats = CacheStats()
        self.geometry = CacheGeometry.from_config(config)
        # Per set: line address -> dirty bit, least recently used first.
        self._sets: list[dict[int, bool]] = [{} for _ in range(config.num_sets)]
        self._bank_free_at: list[int] = [0] * config.banks
        # Outstanding misses: line address -> cycle at which the fill completes.
        self._mshr: dict[int, int] = {}

    # ------------------------------------------------------------------ helpers
    def _bank_ready(self, line_index: int, cycle: int) -> int:
        """Account for bank contention; return the cycle the bank accepts us."""
        bank = self.geometry.bank_index(line_index, self.config.banks)
        start = max(cycle, self._bank_free_at[bank])
        self.stats.bank_conflict_cycles += start - cycle
        self._bank_free_at[bank] = start + 1
        return start

    # ------------------------------------------------------------------ access
    def access(self, address: int, access: AccessType, cycle: int) -> int:
        """Perform one access; return the absolute completion cycle."""
        if cycle < 0:
            raise MemoryModelError("access cycle must be non-negative")
        index = self.geometry.line_index(address)
        line_addr = index * self.config.line_bytes
        start = self._bank_ready(index, cycle)
        cset = self._sets[self.geometry.set_index(index)]
        is_write = access is AccessType.STORE

        if line_addr in cset:
            cset[line_addr] = cset.pop(line_addr)  # move to most recently used
            # A "hit" on a line whose fill is still outstanding merges into the
            # MSHR entry and completes when the fill returns.
            outstanding = self._mshr.get(line_addr)
            pending_fill = outstanding is not None and outstanding > start
            if pending_fill:
                self.stats.mshr_merges += 1
            if is_write:
                self.stats.write_hits += 1
                if self.config.write_back:
                    cset[line_addr] = True
                    complete = start + self.config.hit_latency
                    return max(complete, outstanding) if pending_fill else complete
                # write-through: forward the write below
                complete = start + self.config.hit_latency
                if self.next_level_access is not None:
                    complete = max(
                        complete, self.next_level_access(line_addr, True, start)
                    )
                return complete
            self.stats.read_hits += 1
            complete = start + self.config.hit_latency
            return max(complete, outstanding) if pending_fill else complete

        # ------------------------------------------------------------- miss path
        if is_write:
            self.stats.write_misses += 1
            if not self.config.write_allocate:
                # write-no-allocate: the write goes straight to the next level.
                if self.next_level_access is not None:
                    return max(
                        start + self.config.hit_latency,
                        self.next_level_access(line_addr, True, start),
                    )
                return start + self.config.hit_latency
        else:
            self.stats.read_misses += 1

        # MSHR merge: an outstanding fill of the same line absorbs this miss.
        outstanding = self._mshr.get(line_addr)
        if outstanding is not None and outstanding > start:
            self.stats.mshr_merges += 1
            fill_complete = outstanding
        else:
            # The fill is a *read* of the next level even for a store miss
            # (read-for-ownership under write-allocate).
            fill_complete = start + self.config.hit_latency
            if self.next_level_access is not None:
                fill_complete = max(
                    fill_complete, self.next_level_access(line_addr, False, start)
                )
            self._mshr[line_addr] = fill_complete
            if len(self._mshr) > 4 * self.config.mshr_entries:
                self._prune_mshr(start)

        self._fill(cset, line_addr, dirty=is_write and self.config.write_allocate, cycle=start)
        return fill_complete

    def _fill(self, cset: dict[int, bool], line_addr: int, dirty: bool, cycle: int) -> None:
        """Install ``line_addr`` as most recently used, evicting the LRU line
        of a full set (a dirty victim is written back to the next level)."""
        victim_dirty = False
        if len(cset) >= self.geometry.ways:
            victim = next(iter(cset))
            victim_dirty = cset.pop(victim)
        cset[line_addr] = dirty
        if victim_dirty:
            self.stats.writebacks += 1
            if self.next_level_access is not None:
                self.next_level_access(victim, True, cycle)

    def _prune_mshr(self, cycle: int) -> None:
        self._mshr = {addr: t for addr, t in self._mshr.items() if t > cycle}

    # ------------------------------------------------------------------ queries
    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is currently resident."""
        index = self.geometry.line_index(address)
        return index * self.config.line_bytes in self._sets[self.geometry.set_index(index)]

    def flush(self) -> int:
        """Invalidate every line; return the number of dirty lines written back."""
        dirty = sum(sum(cset.values()) for cset in self._sets)
        for cset in self._sets:
            cset.clear()
        self.stats.writebacks += dirty
        self._mshr.clear()
        return dirty
