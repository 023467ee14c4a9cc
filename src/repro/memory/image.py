"""Functional memory image: the actual values stored in simulated memory.

Timing (caches, DRAM, banks) and *contents* are deliberately separated:
the timing models in this package never hold data, while the
:class:`MemoryImage` holds one NumPy array per named kernel array and is
shared by the functional interpreter, the cycle-level CGRA simulator and
the Fermi SIMT core, so all three produce bit-identical results.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import MemoryModelError
from repro.graph.opcodes import DType
from repro.kernel.arrays import ArraySpec

__all__ = ["MemoryImage", "out_of_bounds"]

_NUMPY_DTYPE = {
    DType.F32: np.float64,  # accumulate in double to avoid reference drift
    DType.I32: np.int64,
    DType.BOOL: np.bool_,
}


def out_of_bounds(kind: str, spec: ArraySpec, index: int) -> MemoryModelError:
    """The error for a ``kind`` (load/store/address) access outside ``spec``."""
    return MemoryModelError(f"{kind} out of bounds: {spec.name}[{index}] (length {spec.length})")


class MemoryImage:
    """Holds the contents of every kernel array (global and shared)."""

    def __init__(self, arrays: Iterable[ArraySpec]) -> None:
        self._specs: dict[str, ArraySpec] = {}
        self._data: dict[str, np.ndarray] = {}
        for spec in arrays:
            self._specs[spec.name] = spec
            self._data[spec.name] = np.zeros(spec.length, dtype=_NUMPY_DTYPE[spec.dtype])

    # ------------------------------------------------------------------ setup
    def set_array(self, name: str, values: np.ndarray | Iterable[float]) -> None:
        """Initialise array ``name`` with ``values`` (length must match)."""
        spec = self.spec(name)
        arr = np.asarray(values, dtype=_NUMPY_DTYPE[spec.dtype]).ravel()
        if arr.size != spec.length:
            raise MemoryModelError(
                f"array '{name}' has length {spec.length}, got {arr.size} values"
            )
        self._data[name] = arr.copy()

    def initialise(self, inputs: Mapping[str, np.ndarray | Iterable[float]]) -> None:
        """Initialise several arrays at once."""
        for name, values in inputs.items():
            self.set_array(name, values)

    # ------------------------------------------------------------------ query
    def spec(self, name: str) -> ArraySpec:
        try:
            return self._specs[name]
        except KeyError as exc:
            raise MemoryModelError(f"array '{name}' is not part of the memory image") from exc

    def array(self, name: str) -> np.ndarray:
        """Return the live backing array (mutations are visible to the image)."""
        self.spec(name)
        return self._data[name]

    def names(self) -> list[str]:
        return list(self._specs)

    # ------------------------------------------------------------------ access
    def load(self, name: str, index: int) -> float | int | bool:
        """Read element ``index`` of array ``name``."""
        spec = self.spec(name)
        idx = int(index)
        if not spec.contains_index(idx):
            raise out_of_bounds("load", spec, idx)
        return self._data[name][idx].item()

    def store(self, name: str, index: int, value: float | int | bool) -> None:
        """Write ``value`` to element ``index`` of array ``name``."""
        spec = self.spec(name)
        idx = int(index)
        if not spec.contains_index(idx):
            raise out_of_bounds("store", spec, idx)
        self._data[name][idx] = value

    def address_of(self, name: str, index: int) -> int:
        """Byte address of ``name[index]`` (used by the timing models)."""
        spec = self.spec(name)
        idx = int(index)
        if not spec.contains_index(idx):
            raise out_of_bounds("address", spec, idx)
        return spec.address_of(idx)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Return a copy of every array (for result comparison)."""
        return {name: arr.copy() for name, arr in self._data.items()}
