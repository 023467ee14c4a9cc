"""Shared-memory scratchpad timing model.

The scratchpad is the structure the paper is trying to avoid: a banked
SRAM used by CUDA-style shared memory (``__shared__``) and by the plain
MT-CGRA baseline for inter-thread communication.  The model charges a
fixed access latency, serialises accesses that hit the same bank in the
same cycle (bank conflicts) and counts every access so the power model can
charge scratchpad energy.

Each bank is a FIFO whose service time is the conflict penalty;
:meth:`Scratchpad.access_batch`, the batched engine's scratch replay,
serves a whole stream with :func:`~repro.memory.fifo.fifo_starts`, the
same as one :meth:`Scratchpad.access` per access in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config.system import ScratchpadConfig
from repro.errors import MemoryModelError
from repro.memory.fifo import fifo_starts
from repro.memory.tagcore import group_spans

__all__ = ["ScratchpadStats", "Scratchpad"]


@dataclass
class ScratchpadStats:
    """Event counters of the scratchpad."""

    reads: int = 0
    writes: int = 0
    bank_conflicts: int = 0

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
        (completions, bank state and counters), computed per bank by
        :func:`~repro.memory.fifo.fifo_starts`.  ``is_write`` is a scalar
        or a per-access boolean vector; returns the absolute completion
        cycles.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.int64)
        if addresses.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(cycles.min()) < 0:
            raise MemoryModelError("access cycle must be non-negative")
        config = self.config
        penalty = config.bank_conflict_penalty
        banks = (addresses // self.word_bytes) % config.banks
        order, starts, ends = group_spans(banks, upper_bound=config.banks)
        bank_of = banks[order[starts]].tolist()
        free_at = self._bank_free_at
        served = fifo_starts(cycles[order], starts.tolist(), [free_at[b] for b in bank_of], penalty)
        for bank, last in zip(bank_of, served[ends - 1].tolist()):
            free_at[bank] = last + penalty
        start = np.empty_like(served)
        start[order] = served
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

        Every word issues on ``cycle``, so along one bank the FIFO
        recurrence is ``start_k = first + p·k`` with
        ``first = max(cycle, bank_free)``: each bank is served in closed
        form from its word count — the same completions, bank state and
        counters as one :meth:`access` per word.  (A warp has at most 32
        words; a NumPy :func:`~repro.memory.fifo.fifo_starts` costs more.)
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
