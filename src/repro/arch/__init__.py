"""CGRA hardware models: the physical unit grid."""

from repro.arch.grid import COMPATIBLE_CLASSES, PhysicalGrid, PhysicalUnit

__all__ = [
    "COMPATIBLE_CLASSES",
    "PhysicalGrid",
    "PhysicalUnit",
]
