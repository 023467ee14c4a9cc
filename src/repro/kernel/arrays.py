"""Named memory arrays visible to kernels.

Kernels address memory through *named arrays* (as CUDA kernels address
buffers passed as pointer arguments).  Each array lives either in global
memory (backed by the simulated L1/L2/DRAM hierarchy) or in the shared
scratchpad (used by the GPGPU and plain MT-CGRA baselines).  The array
table assigns non-overlapping byte base addresses so that the cache models
see realistic address streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KernelBuildError
from repro.graph.opcodes import DType

__all__ = ["MemorySpace", "ArraySpec", "ArrayTable"]


GLOBAL_BASE_ADDRESS = 0x1000
SCRATCH_BASE_ADDRESS = 0x0
ALIGNMENT = 256


class MemorySpace:
    """Address spaces a kernel array can live in."""

    GLOBAL = "global"
    SHARED = "shared"


@dataclass(frozen=True)
class ArraySpec:
    """One named kernel array."""

    name: str
    length: int
    dtype: DType
    space: str
    base_address: int
    elem_bytes: int = 4

    @property
    def size_bytes(self) -> int:
        return self.length * self.elem_bytes

    def address_of(self, index: int) -> int:
        """Byte address of element ``index`` (bounds are checked by callers)."""
        return self.base_address + int(index) * self.elem_bytes

    def contains_index(self, index: int) -> bool:
        return 0 <= int(index) < self.length


@dataclass
class ArrayTable:
    """Allocates and looks up kernel arrays."""

    _arrays: dict[str, ArraySpec] = field(default_factory=dict)
    _next_global: int = GLOBAL_BASE_ADDRESS
    _next_shared: int = SCRATCH_BASE_ADDRESS

    def declare(
        self,
        name: str,
        length: int,
        dtype: DType = DType.F32,
        space: str = MemorySpace.GLOBAL,
        elem_bytes: int = 4,
    ) -> ArraySpec:
        if name in self._arrays:
            raise KernelBuildError(f"array '{name}' is already declared")
        if length <= 0:
            raise KernelBuildError(f"array '{name}' must have positive length")
        if space not in (MemorySpace.GLOBAL, MemorySpace.SHARED):
            raise KernelBuildError(f"unknown memory space '{space}'")
        if space == MemorySpace.GLOBAL:
            base = self._next_global
            self._next_global = _align(base + length * elem_bytes, ALIGNMENT)
        else:
            base = self._next_shared
            self._next_shared = _align(base + length * elem_bytes, ALIGNMENT)
        spec = ArraySpec(
            name=name,
            length=length,
            dtype=dtype,
            space=space,
            base_address=base,
            elem_bytes=elem_bytes,
        )
        self._arrays[name] = spec
        return spec

    def get(self, name: str) -> ArraySpec:
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise KernelBuildError(f"array '{name}' is not declared") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self):
        return iter(self._arrays.values())

    def shared_arrays(self) -> list[ArraySpec]:
        return [a for a in self._arrays.values() if a.space == MemorySpace.SHARED]

    def total_shared_bytes(self) -> int:
        return sum(a.size_bytes for a in self.shared_arrays())


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment
