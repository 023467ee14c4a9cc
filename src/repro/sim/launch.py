"""Kernel launch descriptors.

A :class:`KernelLaunch` bundles everything needed to run one kernel on one
simulated core: the dataflow graph (raw or compiled), the thread-block
geometry and the initial contents of its global arrays — the Python
equivalent of a CUDA ``kernel<<<1, block>>>(args...)`` call with one thread
block per core, which is how the paper evaluates a single SM / CGRA core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.graph.dfg import DataflowGraph
from repro.kernel.arrays import ArraySpec
from repro.kernel.geometry import ThreadGeometry
from repro.memory.image import MemoryImage

__all__ = ["KernelLaunch"]


@dataclass
class KernelLaunch:
    """One kernel invocation: a graph plus its input data."""

    graph: DataflowGraph
    inputs: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        metadata = self.graph.metadata
        if "block_dim" not in metadata or "arrays" not in metadata:
            raise SimulationError(
                "graph is missing launch metadata; build it with KernelBuilder.finish()"
            )
        for name in self.inputs:
            if name not in metadata["arrays"]:
                raise SimulationError(f"input '{name}' is not an array of this kernel")

    # ------------------------------------------------------------------ queries
    @property
    def geometry(self) -> ThreadGeometry:
        return ThreadGeometry(tuple(self.graph.metadata["block_dim"]))

    @property
    def num_threads(self) -> int:
        return self.geometry.num_threads

    @property
    def arrays(self) -> dict[str, ArraySpec]:
        return dict(self.graph.metadata["arrays"])

    def build_memory_image(self) -> MemoryImage:
        """Create a fresh memory image initialised with the launch inputs."""
        image = MemoryImage(self.arrays.values())
        image.initialise(self.inputs)
        return image
