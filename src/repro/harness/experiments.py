"""End-to-end experiment orchestration.

This module glues the whole pipeline together the way the paper's
methodology does (Sec. 5.1): instantiate a workload, run it on one of the
three architectures, verify the results against the NumPy reference,
collect the execution counters and convert them into energy.  The figure
generators in :mod:`repro.harness.figures` and the benchmark suite are thin
wrappers around these functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.comparison import ArchitectureComparison, ComparisonTable
from repro.analyze.manager import analyze_kernel
from repro.compiler.pipeline import CompiledKernel, compile_kernel
from repro.config.system import SystemConfig, default_system_config
from repro.gpgpu.simulator import run_fermi
from repro.obs.metrics import timer
from repro.power.model import EnergyBreakdown, cgra_energy, fermi_energy
from repro.sim import simulate
from repro.workloads.base import ARCHITECTURES, PreparedWorkload, Workload
from repro.workloads.registry import check_variant, get_workload, paper_workloads

__all__ = [
    "RunResult",
    "outputs_digest",
    "run_workload",
    "run_suite",
]

@dataclass
class RunResult:
    """One (workload, architecture) execution."""

    workload: str
    architecture: str
    cycles: int
    counters: dict[str, int | float]
    energy: EnergyBreakdown
    outputs: dict[str, np.ndarray]
    compiled: CompiledKernel | None = None
    params: dict[str, Any] = field(default_factory=dict)
    #: Static-analyzer findings for the compiled kernel (plain
    #: ``Diagnostic.to_dict`` form; empty for the Fermi baseline).
    diagnostics: list[dict[str, Any]] = field(default_factory=list)
    #: Wall-clock seconds per pipeline phase (prepare, build, compile,
    #: simulate, analyze, report, check).  ``build`` is the kernel graph
    #: (or Fermi program) build and its validation.  Kept apart from
    #: ``counters`` on purpose: counters are bit-for-bit deterministic
    #: (and cached as such by the explore layer); phase timings are
    #: host-dependent provenance.
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    def to_record(self) -> dict[str, Any]:
        """Plain-data form of this result (picklable and JSON-serialisable).

        Drops the output arrays and the compiled kernel — everything a
        sweep needs to cache, compare or re-render a run survives: the
        counters (with their engine/core provenance), the energy
        breakdown, the parameters including the input seed, and a
        deterministic :func:`outputs_digest` standing in for the dropped
        arrays, so cached records can still prove output bit-identity.
        """
        return {
            "workload": self.workload,
            "architecture": self.architecture,
            "cycles": int(self.cycles),
            "counters": {k: _plain_scalar(v) for k, v in self.counters.items()},
            "energy_pj": float(self.energy.total_pj),
            "energy": {k: float(v) for k, v in self.energy.components.items()},
            "params": {k: _plain_scalar(v) for k, v in self.params.items()},
            "diagnostics": list(self.diagnostics),
            "phases": {k: float(v) for k, v in self.phases.items()},
            "outputs_digest": outputs_digest(self.outputs),
        }


def outputs_digest(outputs: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over the named output arrays (name, dtype, shape, bytes).

    Deterministic by the engines' bit-identical-outputs contract, so it
    may live inside cached records: a served simulate response proves it
    returned exactly what a direct :func:`repro.sim.simulate` call would
    have produced by matching this digest.
    """
    digest = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(outputs[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _plain_scalar(value: Any) -> Any:
    """Convert NumPy scalars to native Python so records serialise to JSON."""
    return value.item() if isinstance(value, np.generic) else value


def _resolve(workload: Workload | str) -> Workload:
    if isinstance(workload, str):
        return get_workload(workload)
    return workload


def _outputs_from_memory(prepared: PreparedWorkload, memory) -> dict[str, np.ndarray]:
    return {name: memory.array(name).copy() for name in prepared.expected}


def run_workload(
    workload: Workload | str,
    architecture: str,
    params: Mapping[str, Any] | None = None,
    seed: int = 0,
    config: SystemConfig | None = None,
    check: bool = True,
    engine: str = "auto",
) -> RunResult:
    """Run one workload on one architecture and return cycles/energy/outputs.

    ``architecture`` is one of the paper's three architectures
    (``fermi``/``mt``/``dmt``) or an additional graph variant
    (``dmt_win``, ``stream``) the workload builds; anything else raises
    :class:`~repro.errors.WorkloadError`
    (:func:`~repro.workloads.registry.check_variant`).  ``engine`` is
    forwarded to :func:`repro.sim.simulate`, and the core count is
    ``config.cores``; the resolved engine (never ``"auto"``) lands in
    ``counters["engine"]``.  Both are ignored by the Fermi baseline.
    """
    resolved = _resolve(workload)
    check_variant(resolved, architecture)
    config = config or default_system_config()
    phases: dict[str, float] = {}
    with timer("prepare") as span:
        prepared = resolved.prepare(params, seed=seed)
    phases["prepare"] = span.seconds

    if architecture == "fermi":
        with timer("build") as span:
            program = prepared.fermi_program()
        phases["build"] = span.seconds
        with timer("simulate") as span:
            result = run_fermi(program, prepared.fermi_inputs(program), config=config)
        phases["simulate"] = span.seconds
        with timer("report") as span:
            counters = result.counters()
            energy = fermi_energy(counters, config)
            outputs = _outputs_from_memory(prepared, result.memory)
        phases["report"] = span.seconds
        compiled = None
        cycles = result.cycles
        diagnostics = []
    else:
        with timer("build") as span:
            launch = prepared.launch(architecture)
        phases["build"] = span.seconds
        with timer("compile") as span:
            compiled = compile_kernel(launch.graph, config)
        phases["compile"] = span.seconds
        with timer("simulate") as span:
            result = simulate(compiled, launch, engine=engine)
        phases["simulate"] = span.seconds
        counters = result.counters()
        # Report the static critical-path lower bound next to the measured
        # cycle count (cached on the kernel by the compile-time analysis).
        with timer("analyze") as span:
            analysis = analyze_kernel(compiled)
        phases["analyze"] = span.seconds
        counters["static_min_cycles"] = analysis.min_cycles
        diagnostics = [d.to_dict() for d in analysis.diagnostics]
        with timer("report") as span:
            energy = cgra_energy(counters, compiled)
            outputs = _outputs_from_memory(prepared, result.memory)
        phases["report"] = span.seconds
        cycles = result.cycles

    if check:
        with timer("check") as span:
            prepared.check_outputs(outputs)
        phases["check"] = span.seconds

    return RunResult(
        workload=resolved.name,
        architecture=architecture,
        cycles=cycles,
        counters=dict(counters),
        energy=energy,
        outputs=outputs,
        compiled=compiled,
        # The seed is part of the run's identity (it generated the input
        # data), so it travels with the parameters.
        params={**prepared.params, "seed": prepared.seed},
        diagnostics=diagnostics,
        phases=phases,
    )


def run_suite(
    workloads: Sequence[Workload | str] | None = None,
    params: Mapping[str, Mapping[str, Any]] | None = None,
    seed: int = 0,
    config: SystemConfig | None = None,
    engine: str = "auto",
) -> ComparisonTable:
    """Run the full Table 3 suite on all three architectures (Figs. 11/12)."""
    table = ComparisonTable()
    selected = [_resolve(w) for w in (workloads or paper_workloads())]
    for workload in selected:
        overrides = (params or {}).get(workload.name)
        results = {
            architecture: run_workload(
                workload,
                architecture,
                params=overrides,
                seed=seed,
                config=config,
                engine=engine,
            )
            for architecture in ARCHITECTURES
        }
        table.add(
            ArchitectureComparison(
                workload=workload.name,
                cycles={arch: r.cycles for arch, r in results.items()},
                energy_pj={arch: r.energy_pj for arch, r in results.items()},
            )
        )
    return table
