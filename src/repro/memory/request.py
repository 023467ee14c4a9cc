"""The access kind shared by every memory timing model.

The cycle-level CGRA simulator, the batched engine's cache model and the
Fermi SIMT core all tell the memory hierarchy whether an access is a load
or a store with :class:`AccessType`; the hierarchy answers with the
absolute completion cycle.
"""

from __future__ import annotations

import enum

__all__ = ["AccessType"]


class AccessType(enum.Enum):
    """Kind of memory operation."""

    LOAD = "load"
    STORE = "store"
