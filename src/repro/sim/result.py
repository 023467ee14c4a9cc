"""The one timed result type of every engine, CGRA and Fermi alike."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.memory.shared_dram import SharedDRAM
from repro.sim.stats import ExecutionStats

if TYPE_CHECKING:
    from repro.sim.multicore import ShardPlan

__all__ = ["MAX_CYCLES", "SimulationResult"]

#: Cycle budget of every timed engine: a run that passes it raises (a
#: kernel that never retires its threads would otherwise loop forever).
MAX_CYCLES = 20_000_000


@dataclass(frozen=True)
class SimulationResult:
    """What one timed run produced, with resolved provenance.

    ``engine`` is the engine that actually ran (``"event"``,
    ``"batched"`` or ``"window-batched"`` — never ``"auto"`` — or
    ``"fermi"`` for the SIMT baseline, whose ``outputs`` are empty) and
    ``cores`` the number of cores the launch ran on; both also live in
    ``stats.extra`` so cached counter rows carry the same provenance.
    ``hierarchies`` holds one memory hierarchy per core.  A sharded run
    also carries its shard ``plan`` and, when the cores contend for one
    DRAM device, the ``shared_dram``.
    """

    cycles: int
    stats: ExecutionStats
    memory: MemoryImage
    outputs: dict[str, list[Any]]
    engine: str
    cores: int
    hierarchies: tuple[MemoryHierarchy, ...]
    plan: ShardPlan | None = None
    shared_dram: SharedDRAM | None = None

    @property
    def hierarchy(self) -> MemoryHierarchy:
        """The memory hierarchy of a single-core run.

        Sharded runs have one hierarchy per core — read ``hierarchies``.
        """
        if len(self.hierarchies) != 1:
            raise SimulationError("a sharded run has one hierarchy per core; read hierarchies")
        return self.hierarchies[0]

    def array(self, name: str) -> np.ndarray:
        return self.memory.array(name)

    def output(self, name: str) -> list[Any]:
        return self.outputs[name]

    def counters(self) -> dict[str, int | float]:
        """Execution counters plus the summed per-core hierarchy counters.

        With a shared DRAM each core's hierarchy reports only its own port
        traffic, so the per-core sum still counts every device access
        exactly once.
        """
        merged: dict[str, int | float] = dict(self.stats.as_dict())
        for hierarchy in self.hierarchies:
            for key, value in hierarchy.stats().flat().items():
                merged[key] = merged.get(key, 0) + value
        return merged
