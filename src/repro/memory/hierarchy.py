"""The assembled memory hierarchy: L1 -> L2 -> DRAM (+ scratchpad).

One :class:`MemoryHierarchy` instance is shared by a whole simulated core.
It offers scalar accesses (used by the CGRA load/store units, one token at
a time) and coalesced group accesses (used by the Fermi SIMT core, one
warp's line transactions at a time), both returning absolute completion
cycles.

The CGRA cores use a write-back / write-allocate L1 while the Fermi
baseline uses write-through / write-no-allocate, exactly as stated in the
paper's methodology; the policy difference is injected through the
:class:`repro.config.system.CacheConfig` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.config.system import MemorySystemConfig
from repro.errors import MemoryModelError
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DramModel
from repro.memory.request import AccessType
from repro.memory.scratchpad import Scratchpad

__all__ = ["MemoryHierarchy", "HierarchyStats"]


@dataclass
class HierarchyStats:
    """Aggregated counters of every level (flattened for the power model)."""

    l1: dict[str, int]
    l2: dict[str, int]
    dram: dict[str, int]
    scratchpad: dict[str, int]

    def flat(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for prefix, counters in (
            ("l1", self.l1),
            ("l2", self.l2),
            ("dram", self.dram),
            ("scratchpad", self.scratchpad),
        ):
            for key, value in counters.items():
                out[f"{prefix}_{key}"] = value
        return out


class MemoryHierarchy:
    """L1 + L2 + DRAM + scratchpad with shared timing state."""

    def __init__(
        self,
        config: MemorySystemConfig,
        l1_write_through: bool = False,
        dram: "DramModel | None" = None,
    ) -> None:
        """``dram`` may be a private :class:`DramModel` (the default) or a
        per-core :class:`~repro.memory.shared_dram.SharedDramPort` onto a
        device shared with the other cores; any object with the model's
        ``access``/``stats`` interface works."""
        config.validate()
        self.config = config
        self.dram = dram if dram is not None else DramModel(
            config.dram, line_bytes=config.l2.line_bytes
        )
        self.l2 = l2 = SetAssociativeCache(config.l2, next_level_access=self.dram.access)

        def l2_access(line_addr: int, is_write: bool, cycle: int) -> int:
            # Adapt the boolean next-level protocol to the cache's
            # AccessType one: an L1 writeback (or write-through) must reach
            # L2 as a *store* — passing the bool straight through silently
            # classified every L1 writeback as an L2 read, so L2 lines
            # never turned dirty and DRAM never saw a write.  The closure
            # holds the L2, not the hierarchy, so the hierarchy is freed by
            # reference count.
            access = AccessType.STORE if is_write else AccessType.LOAD
            return l2.access(line_addr, access, cycle)

        l1_config = config.l1
        if l1_write_through:
            l1_config = replace(l1_config, write_back=False, write_allocate=False)
        self.l1 = SetAssociativeCache(l1_config, next_level_access=l2_access)
        self.scratchpad = Scratchpad(config.scratchpad)

    # ----------------------------------------------------------------- scalar
    def access(
        self, address: int, access: AccessType, cycle: int, size: int = 4
    ) -> int:
        """One scalar global-memory access through L1/L2/DRAM; returns the
        absolute completion cycle."""
        if size <= 0:
            raise MemoryModelError("access size must be positive")
        return self.l1.access(address, access, cycle)

    def load(self, address: int, cycle: int, size: int = 4) -> int:
        return self.access(address, AccessType.LOAD, cycle, size)

    # ------------------------------------------------------------ group access
    def access_group(self, lines: Sequence[int], access: AccessType, cycle: int) -> int:
        """A warp-wide coalesced access: one transaction per line address.

        ``lines`` holds the distinct ``l1.line_bytes``-aligned addresses
        the warp's active lanes touch, in ascending order; each is one
        scalar :meth:`access` on ``cycle``.  Returns the completion cycle
        of the slowest transaction (``cycle`` for no lines).
        """
        complete = cycle
        l1_access = self.l1.access
        for line in lines:
            done = l1_access(line, access, cycle)
            if done > complete:
                complete = done
        return complete

    # ----------------------------------------------------------------- queries
    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            l1=self.l1.stats.as_dict(),
            l2=self.l2.stats.as_dict(),
            dram=self.dram.stats.as_dict(),
            scratchpad=self.scratchpad.stats.as_dict(),
        )
