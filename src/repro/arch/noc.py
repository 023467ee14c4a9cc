"""Statically routed network-on-chip (NoC) model.

The MT-CGRA interconnect is configured together with the grid: every
dataflow edge is assigned a fixed XY route at compile time, and tokens of
all threads follow that route.  The model provides

* dimension-ordered (XY) route computation between physical tiles,
* per-link bandwidth accounting (``link_bandwidth_tokens`` tokens per
  cycle per link), which adds queueing delay on hot links, and
* hop/energy statistics for the power model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.grid import PhysicalGrid
from repro.config.system import NocConfig
from repro.errors import RoutingError

__all__ = ["NocStats", "Link", "Noc"]


@dataclass(frozen=True)
class Link:
    """A directed link between two adjacent tiles, identified by coordinates."""

    src_row: int
    src_col: int
    dst_row: int
    dst_col: int

    def __post_init__(self) -> None:
        if abs(self.src_row - self.dst_row) + abs(self.src_col - self.dst_col) != 1:
            raise RoutingError("NoC links connect adjacent tiles only")


@dataclass
class NocStats:
    """Counters of the interconnect."""

    tokens_sent: int = 0
    total_hops: int = 0
    contention_cycles: int = 0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.tokens_sent if self.tokens_sent else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "tokens_sent": self.tokens_sent,
            "total_hops": self.total_hops,
            "contention_cycles": self.contention_cycles,
            "mean_hops": self.mean_hops,
        }


class Noc:
    """Statically routed mesh interconnect over a :class:`PhysicalGrid`."""

    def __init__(self, grid: PhysicalGrid, config: NocConfig) -> None:
        config.validate()
        self.grid = grid
        self.config = config
        self.stats = NocStats()
        # Per-link usage per cycle for bandwidth accounting: (link, cycle) -> tokens.
        self._link_use: dict[tuple[Link, int], int] = {}

    # ------------------------------------------------------------------ routes
    def route(self, src_unit: int, dst_unit: int) -> list[Link]:
        """Dimension-ordered (X then Y) route between two tiles."""
        src = self.grid.unit(src_unit)
        dst = self.grid.unit(dst_unit)
        links: list[Link] = []
        row, col = src.row, src.col
        step = 1 if dst.col > col else -1
        while col != dst.col:
            links.append(Link(row, col, row, col + step))
            col += step
        step = 1 if dst.row > row else -1
        while row != dst.row:
            links.append(Link(row, col, row + step, col))
            row += step
        return links

    # ------------------------------------------------------------------ traffic
    def send(self, src_unit: int, dst_unit: int, cycle: int) -> int:
        """Send one token along the static route starting at ``cycle``.

        Returns the arrival cycle.  Each link accepts
        ``link_bandwidth_tokens`` tokens per cycle; excess tokens slip to
        the next cycle, modelling contention on hot links.
        """
        if cycle < 0:
            raise RoutingError("cycle must be non-negative")
        links = self.route(src_unit, dst_unit)
        now = cycle + self.config.injection_latency
        for link in links:
            now = self._traverse(link, now)
        self.stats.tokens_sent += 1
        self.stats.total_hops += len(links)
        return now

    def _traverse(self, link: Link, cycle: int) -> int:
        while True:
            used = self._link_use.get((link, cycle), 0)
            if used < self.config.link_bandwidth_tokens:
                self._link_use[(link, cycle)] = used + 1
                return cycle + self.config.hop_latency
            self.stats.contention_cycles += 1
            cycle += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Noc(tokens={self.stats.tokens_sent}, mean_hops={self.stats.mean_hops:.2f})"
