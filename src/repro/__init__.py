"""dMT-CGRA reproduction library.

A full-system Python reproduction of Voitsechov & Etsion, *Inter-thread
Communication in Multithreaded, Reconfigurable Coarse-grain Arrays*
(MICRO 2018): the programming-model extensions (``fromThreadOrConst``,
``tagValue``, ``fromThreadOrMem``), the compiler that lowers them to
elevator / eLDST nodes, cycle-level simulators for the MT-CGRA and
dMT-CGRA cores, a Fermi-like SIMT baseline, a GPUWattch-style energy
model, the Table 3 workloads in all three variants and the harness that
regenerates every table and figure of the paper's evaluation.

Typical use::

    from repro import KernelBuilder, compile_kernel, KernelLaunch, simulate

    builder = KernelBuilder("scan", 256)
    ...
    compiled = compile_kernel(builder.finish())
    result = simulate(compiled, KernelLaunch(compiled.graph, inputs))
    result.engine, result.cycles, result.array("out")
"""

from repro.compiler import CompiledKernel, compile_kernel
from repro.config import SystemConfig, default_system_config
from repro.errors import (
    CompilationError,
    ConfigurationError,
    DeadlockError,
    GraphError,
    GraphValidationError,
    KernelBuildError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.graph import DataflowGraph, DType, Opcode, UnitClass
from repro.harness import run_suite, run_workload
from repro.kernel import KernelBuilder, ThreadGeometry
from repro.power import EnergyTable, cgra_energy, default_energy_table, fermi_energy
from repro.sim import (
    FunctionalResult,
    KernelLaunch,
    SimulationResult,
    run_functional,
    simulate,
)
from repro.workloads import all_workloads, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "CompilationError",
    "CompiledKernel",
    "ConfigurationError",
    "DType",
    "DataflowGraph",
    "DeadlockError",
    "EnergyTable",
    "FunctionalResult",
    "GraphError",
    "GraphValidationError",
    "KernelBuildError",
    "KernelBuilder",
    "KernelLaunch",
    "Opcode",
    "ReproError",
    "SimulationError",
    "SimulationResult",
    "SystemConfig",
    "ThreadGeometry",
    "UnitClass",
    "WorkloadError",
    "all_workloads",
    "cgra_energy",
    "compile_kernel",
    "default_energy_table",
    "default_system_config",
    "fermi_energy",
    "get_workload",
    "run_functional",
    "run_suite",
    "run_workload",
    "simulate",
    "workload_names",
    "__version__",
]
