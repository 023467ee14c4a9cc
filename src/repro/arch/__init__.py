"""CGRA hardware models: the physical unit grid and the NoC."""

from repro.arch.grid import COMPATIBLE_CLASSES, PhysicalGrid, PhysicalUnit
from repro.arch.noc import Link, Noc, NocStats

__all__ = [
    "COMPATIBLE_CLASSES",
    "Link",
    "Noc",
    "NocStats",
    "PhysicalGrid",
    "PhysicalUnit",
]
