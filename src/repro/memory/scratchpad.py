"""Shared-memory scratchpad timing model.

The scratchpad is the structure the paper is trying to avoid: a banked
SRAM used by CUDA-style shared memory (``__shared__``) and by the plain
MT-CGRA baseline for inter-thread communication.  The model charges a
fixed access latency, serialises accesses that hit the same bank in the
same cycle (bank conflicts) and counts every access so the power model can
charge scratchpad energy.

Each bank serves its accesses first come, first served:
``start_k = max(issue_k, start_{k-1} + p)`` with conflict penalty ``p``.
That recurrence unrolls to ``start_k = p·k + cummax(issue_j − p·j)``
along one bank's subsequence (:func:`bank_queue`), so a whole access
stream is served in closed form; :meth:`Scratchpad.access_batch` is the
batched engine's scratch replay and equals calling
:meth:`Scratchpad.access` once per access in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config.system import ScratchpadConfig
from repro.errors import MemoryModelError

__all__ = ["ScratchpadStats", "Scratchpad", "bank_queue"]


def bank_queue(
    banks: np.ndarray, issue: np.ndarray, free_at: np.ndarray, penalty: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start cycles of a FIFO-per-bank access stream, in closed form.

    ``banks`` and ``issue`` (int64) list the stream in service order;
    ``free_at`` holds each bank's first free cycle before the stream.
    Along one bank's subsequence ``start_k = max(issue_k, start_{k-1} +
    penalty)`` with ``start_{-1} + penalty = free_at[bank]``, which is
    ``penalty·k + max(free_at, cummax(issue_j − penalty·j))``.  Returns
    ``(start, last)``: the per-access start cycles (aligned with the
    input) and the stream index of each bank's last access (``-1`` for an
    untouched bank).
    """
    n = banks.size
    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order]
    first = np.r_[True, sorted_banks[1:] != sorted_banks[:-1]]
    head = np.flatnonzero(first)
    segment = np.cumsum(first) - 1
    k = np.arange(n, dtype=np.int64) - head[segment]
    base = issue[order] - penalty * k
    base[head] = np.maximum(base[head], free_at[sorted_banks[head]])
    # One running maximum over all banks: lifting segment g by g·span
    # keeps every earlier segment below it.
    span = int(base.max() - base.min()) + 1
    lift = segment * span
    start_sorted = np.maximum.accumulate(base + lift) - lift + penalty * k
    start = np.empty(n, dtype=np.int64)
    start[order] = start_sorted
    last = np.full(free_at.size, -1, dtype=np.int64)
    last[sorted_banks] = order  # the last write per bank wins
    return start, last


@dataclass
class ScratchpadStats:
    """Event counters of the scratchpad."""

    reads: int = 0
    writes: int = 0
    bank_conflicts: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def as_dict(self) -> dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bank_conflicts": self.bank_conflicts,
        }


class Scratchpad:
    """A banked shared-memory scratchpad."""

    def __init__(self, config: ScratchpadConfig, word_bytes: int = 4) -> None:
        config.validate()
        if word_bytes <= 0:
            raise MemoryModelError("word_bytes must be positive")
        self.config = config
        self.word_bytes = word_bytes
        self.stats = ScratchpadStats()
        self._bank_free_at = [0] * config.banks

    def bank_of(self, address: int) -> int:
        return (address // self.word_bytes) % self.config.banks

    def access(self, address: int, is_write: bool, cycle: int) -> int:
        """One scalar access; returns the absolute completion cycle."""
        if cycle < 0:
            raise MemoryModelError("access cycle must be non-negative")
        bank = self.bank_of(address)
        start = max(cycle, self._bank_free_at[bank])
        if start > cycle:
            self.stats.bank_conflicts += 1
        self._bank_free_at[bank] = start + self.config.bank_conflict_penalty
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return start + self.config.access_latency

    def access_batch(
        self, addresses: np.ndarray, is_write: "bool | np.ndarray", cycles: np.ndarray
    ) -> np.ndarray:
        """A stream of scalar accesses served in stream order.

        Same effect as calling :meth:`access` once per element, in order
        (completions, bank state and counters), computed by
        :func:`bank_queue`.  ``is_write`` is a scalar or a per-access
        boolean vector; returns the absolute completion cycles.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.int64)
        if addresses.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(cycles.min()) < 0:
            raise MemoryModelError("access cycle must be non-negative")
        config = self.config
        banks = (addresses // self.word_bytes) % config.banks
        free_at = np.array(self._bank_free_at, dtype=np.int64)
        start, last = bank_queue(banks, cycles, free_at, config.bank_conflict_penalty)
        touched = np.flatnonzero(last >= 0)
        for bank, free in zip(
            touched.tolist(),
            (start[last[touched]] + config.bank_conflict_penalty).tolist(),
        ):
            self._bank_free_at[bank] = free
        stats = self.stats
        stats.bank_conflicts += int(np.count_nonzero(start > cycles))
        writes = int(np.count_nonzero(np.broadcast_to(is_write, addresses.shape)))
        stats.writes += writes
        stats.reads += addresses.size - writes
        return start + config.access_latency

    def access_group(
        self, banks: Sequence[int], counts: Sequence[int], is_write: bool, cycle: int
    ) -> int:
        """A warp-wide access: ``counts[i]`` distinct words in bank ``banks[i]``.

        Returns the completion cycle of the slowest lane.  Words in one
        bank are serialised (the classic shared-memory bank conflict);
        lanes touching the same *word* are a broadcast, so the caller
        counts that word once.

        Every word issues on ``cycle``, so along one bank the
        :func:`bank_queue` recurrence is ``start_k = first + p·k`` with
        ``first = max(cycle, bank_free)``: each bank is served in closed
        form from its word count — the same completions, bank state and
        counters as one :meth:`access` per word.  (A warp has at most 32
        words; a NumPy :func:`bank_queue` call costs more than this loop.)
        """
        config = self.config
        penalty = config.bank_conflict_penalty
        free_at = self._bank_free_at
        last_start = cycle
        conflicts = 0
        for bank, count in zip(banks, counts):
            first = free_at[bank] if free_at[bank] > cycle else cycle
            last = first + penalty * (count - 1)
            if first > cycle:
                conflicts += count
            elif penalty > 0:
                conflicts += count - 1
            free_at[bank] = last + penalty
            if last > last_start:
                last_start = last
        stats = self.stats
        stats.bank_conflicts += conflicts
        words = sum(counts)
        if is_write:
            stats.writes += words
        else:
            stats.reads += words
        return last_start + config.access_latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scratchpad(banks={self.config.banks}, accesses={self.stats.accesses})"
