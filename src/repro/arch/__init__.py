"""CGRA hardware models: the physical unit grid, the NoC and the Live Value Cache."""

from repro.arch.grid import COMPATIBLE_CLASSES, PhysicalGrid, PhysicalUnit
from repro.arch.lvc import LiveValueCache, LiveValueCacheStats
from repro.arch.noc import Link, Noc, NocStats

__all__ = [
    "COMPATIBLE_CLASSES",
    "LiveValueCache",
    "LiveValueCacheStats",
    "Link",
    "Noc",
    "NocStats",
    "PhysicalGrid",
    "PhysicalUnit",
]
