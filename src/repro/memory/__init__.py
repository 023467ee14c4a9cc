"""Memory hierarchy models: caches, DRAM, scratchpad, image."""

from repro.memory.cache import CacheStats, SetAssociativeCache
from repro.memory.dram import DramModel, DramStats
from repro.memory.hierarchy import HierarchyStats, MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.memory.request import AccessType
from repro.memory.scratchpad import Scratchpad, ScratchpadStats
from repro.memory.shared_dram import SharedDRAM, SharedDramPort
from repro.memory.tagcore import CacheGeometry

__all__ = [
    "AccessType",
    "CacheGeometry",
    "CacheStats",
    "DramModel",
    "DramStats",
    "HierarchyStats",
    "MemoryHierarchy",
    "MemoryImage",
    "Scratchpad",
    "ScratchpadStats",
    "SetAssociativeCache",
    "SharedDRAM",
    "SharedDramPort",
]
