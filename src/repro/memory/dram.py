"""GDDR5-like DRAM timing model (channels x banks, Table 2 configuration).

The model is deliberately first-order: every access pays a fixed device
latency plus queueing delay on its bank, banks are interleaved on line
addresses across channels, and each access occupies its bank for
``bank_busy_cycles`` (the burst time).  This captures the two effects the
paper's evaluation depends on — DRAM bandwidth saturation under redundant
loads and the latency seen by cold misses — without modelling row-buffer
policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import DramConfig
from repro.errors import MemoryModelError

__all__ = ["DramStats", "DramModel"]


@dataclass
class DramStats:
    """Event counters of the DRAM device."""

    reads: int = 0
    writes: int = 0
    queue_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def as_dict(self) -> dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "queue_cycles": self.queue_cycles,
        }


class DramModel:
    """Banked, multi-channel DRAM with fixed access latency."""

    def __init__(self, config: DramConfig, line_bytes: int = 128) -> None:
        config.validate()
        if line_bytes <= 0:
            raise MemoryModelError("line_bytes must be positive")
        self.config = config
        self.line_bytes = line_bytes
        self.stats = DramStats()
        self._bank_free_at = [
            [0] * config.banks_per_channel for _ in range(config.channels)
        ]

    def _map(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        channel = line % self.config.channels
        bank = (line // self.config.channels) % self.config.banks_per_channel
        return channel, bank

    def access(self, address: int, is_write: bool, cycle: int) -> int:
        """Issue one line-sized access; return the absolute completion cycle."""
        if cycle < 0:
            raise MemoryModelError("access cycle must be non-negative")
        channel, bank = self._map(address)
        free_at = self._bank_free_at[channel][bank]
        start = max(cycle, free_at)
        self.stats.queue_cycles += start - cycle
        self._bank_free_at[channel][bank] = start + self.config.bank_busy_cycles
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return start + self.config.access_latency
