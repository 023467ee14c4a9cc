"""Exception hierarchy for the dMT-CGRA reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError` or :class:`KeyError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "GraphValidationError",
    "KernelBuildError",
    "CompilationError",
    "MappingError",
    "SimulationError",
    "DeadlockError",
    "MemoryModelError",
    "IsaError",
    "GpgpuExecutionError",
    "ConfigurationError",
    "WorkloadError",
    "ExplorationError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class ConfigurationError(ReproError):
    """A system configuration value is inconsistent or out of range."""


class GraphError(ReproError):
    """Base class for dataflow-graph construction errors."""


class GraphValidationError(GraphError):
    """A dataflow graph failed structural validation."""


class KernelBuildError(ReproError):
    """The kernel-builder DSL was used incorrectly."""


class CompilationError(ReproError):
    """A compiler pass could not legalise or lower the kernel graph."""


class MappingError(CompilationError):
    """The mapper could not place the graph onto the CGRA grid."""


class SimulationError(ReproError):
    """A simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The dataflow simulation stopped making progress before completion."""


class MemoryModelError(ReproError):
    """The memory hierarchy was configured or accessed inconsistently."""


class IsaError(ReproError):
    """A SIMT program is malformed (bad operands, undefined labels, ...)."""


class GpgpuExecutionError(ReproError):
    """The SIMT core reached an inconsistent state while executing."""


class WorkloadError(ReproError):
    """A workload was instantiated with unsupported parameters."""


class ExplorationError(ReproError):
    """A design-space exploration campaign spec or cache is inconsistent."""
