"""Workload infrastructure.

A :class:`Workload` packages one Table 3 kernel in the three forms the
paper evaluates:

* ``fermi``  — a hand-written SIMT program using shared memory and
  barriers (the CUDA/Rodinia baseline);
* ``mt``     — a dataflow graph for the plain MT-CGRA, still using the
  scratchpad and barrier nodes for inter-thread data sharing;
* ``dmt``    — a dataflow graph using the paper's ``fromThreadOrConst`` /
  ``fromThreadOrMem`` primitives instead of shared memory and barriers.

Every workload also provides a NumPy reference; all three variants are
required (and tested) to produce the same named output arrays as that
reference, which is what makes the cross-architecture performance and
energy comparison meaningful.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.errors import WorkloadError
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import Opcode
from repro.gpgpu.program import SimtProgram
from repro.sim.launch import KernelLaunch

__all__ = ["ARCHITECTURES", "GRAPH_VARIANTS", "Workload", "PreparedWorkload", "check_seed"]

#: Architecture identifiers used throughout the harness and the benches.
ARCHITECTURES = ("fermi", "mt", "dmt")

#: Dataflow-graph variants runnable on the CGRA simulators
#: (:meth:`Workload.build_graph`): the paper's ``mt`` and ``dmt``, the
#: window-bounded ``dmt_win`` (legal for multi-core sharding) and the
#: inter-thread-free ``stream`` (legal for the batched engine).
GRAPH_VARIANTS = ("mt", "dmt", "dmt_win", "stream")


def _param_problem(default: Any, value: Any) -> str:
    """What ``value`` must be to replace ``default``, or ``""`` if it fits."""
    is_bool = isinstance(value, (bool, np.bool_))
    if isinstance(default, int):
        fits = isinstance(value, (int, np.integer)) and not is_bool and value >= 1
        return "" if fits else "an int of at least 1"
    if isinstance(default, float):
        fits = isinstance(value, (int, float, np.integer, np.floating)) and not is_bool
        return "" if fits else "a number"
    return "" if isinstance(value, type(default)) else f"a {type(default).__name__}"


def check_seed(seed: Any) -> int:
    """``seed`` as an input seed: an int of at least 0 (not a bool, float
    or string), else :class:`WorkloadError`."""
    is_int = isinstance(seed, (int, np.integer)) and not isinstance(seed, (bool, np.bool_))
    if not is_int or seed < 0:
        raise WorkloadError(f"the seed must be an int of at least 0, got {seed!r}")
    return int(seed)


@dataclass
class PreparedWorkload:
    """One workload instantiated with concrete parameters and data."""

    workload: "Workload"
    params: dict[str, Any]
    inputs: dict[str, np.ndarray]
    expected: dict[str, np.ndarray]
    #: RNG seed that generated ``inputs``; part of the run's identity, so
    #: result caches keyed on parameters capture the input data too.
    seed: int = 0

    def launch(self, architecture: str) -> KernelLaunch:
        """Build the dataflow launch for ``mt``, ``dmt``, ``dmt_win`` or ``stream``."""
        graph = self.workload.build_graph(architecture, self.params)
        usable = {k: v for k, v in self.inputs.items() if k in graph.metadata["arrays"]}
        return KernelLaunch(graph, usable)

    def fermi_program(self) -> SimtProgram:
        return self.workload.build_fermi(self.params)

    def fermi_inputs(self, program: SimtProgram) -> dict[str, np.ndarray]:
        """The inputs ``program`` (this workload's Fermi build) reads."""
        return {k: v for k, v in self.inputs.items() if k in program.arrays}

    def check_outputs(
        self, produced: Mapping[str, np.ndarray], rtol: float = 1e-6, atol: float = 1e-6
    ) -> None:
        """Raise :class:`WorkloadError` if outputs do not match the reference."""
        for name, expected in self.expected.items():
            if name not in produced:
                raise WorkloadError(f"output array '{name}' was not produced")
            got = np.asarray(produced[name], dtype=float).ravel()
            want = np.asarray(expected, dtype=float).ravel()
            if got.shape != want.shape:
                raise WorkloadError(
                    f"output '{name}' has shape {got.shape}, expected {want.shape}"
                )
            if not np.allclose(got, want, rtol=rtol, atol=atol):
                worst = int(np.argmax(np.abs(got - want)))
                raise WorkloadError(
                    f"output '{name}' differs from the reference "
                    f"(worst at index {worst}: {got[worst]} vs {want[worst]})"
                )


class Workload(abc.ABC):
    """One benchmark kernel of Table 3."""

    #: Short identifier (Table 3 "Application").
    name: str = ""
    #: Application domain (Table 3).
    domain: str = ""
    #: Kernel name (Table 3).
    kernel_name: str = ""
    #: One-line description (Table 3).
    description: str = ""
    #: Origin of the kernel ("NVIDIA SDK" or "Rodinia").
    suite: str = ""

    # ------------------------------------------------------------------- hooks
    @abc.abstractmethod
    def default_params(self) -> dict[str, Any]:
        """Default problem-size parameters."""

    @abc.abstractmethod
    def make_inputs(
        self, params: Mapping[str, Any], rng: np.random.Generator
    ) -> dict[str, np.ndarray]:
        """Generate the input arrays for one run."""

    @abc.abstractmethod
    def reference(
        self, params: Mapping[str, Any], inputs: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """NumPy reference results for the output arrays."""

    @abc.abstractmethod
    def build_dmt(self, params: Mapping[str, Any]) -> DataflowGraph:
        """dMT-CGRA kernel graph (direct inter-thread communication)."""

    @abc.abstractmethod
    def build_mt(self, params: Mapping[str, Any]) -> DataflowGraph:
        """MT-CGRA kernel graph (scratchpad + barrier)."""

    @abc.abstractmethod
    def build_stream(self, params: Mapping[str, Any]) -> DataflowGraph:
        """Inter-thread-free ("streaming") kernel graph.

        Every thread loads its own operands from global memory — no
        scratchpad, barriers or inter-thread forwarding — which is the
        form the wave-batched engine and multi-core sharding can execute.
        """

    @abc.abstractmethod
    def build_fermi(self, params: Mapping[str, Any]) -> SimtProgram:
        """Fermi baseline SIMT program (shared memory + barrier)."""

    def build_graph(self, variant: str, params: Mapping[str, Any]) -> DataflowGraph:
        """The dataflow graph of one of :data:`GRAPH_VARIANTS`."""
        builders = {
            "mt": self.build_mt,
            "dmt": self.build_dmt,
            "dmt_win": self.build_dmt_windowed,
            "stream": self.build_stream,
        }
        if variant not in builders:
            raise WorkloadError(
                f"variant '{variant}' does not run a dataflow graph; "
                f"expected one of {GRAPH_VARIANTS}"
            )
        return builders[variant](params)

    def build_dmt_windowed(self, params: Mapping[str, Any]) -> DataflowGraph:
        """dMT kernel whose inter-thread communication is window-bounded.

        Every ELEVATOR/ELDST node carries an explicit transmission
        ``window`` (Sec. 3.2), which is what makes the kernel legal for
        the window-aligned multi-core sharding of
        :mod:`repro.sim.multicore`.  Workloads whose default dMT graph is
        already windowed (e.g. reduce) do not need to override this;
        workloads whose communication pattern inherently spans the block
        (e.g. scan's running recurrence) have no windowed form.
        """
        graph = self.build_dmt(params)
        unbounded = [
            node.label()
            for node in graph.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST)
            if node.param("window") is None
        ]
        if unbounded:
            raise WorkloadError(
                f"workload '{self.name}' has no window-bounded dMT variant "
                f"(unbounded: {', '.join(unbounded)})"
            )
        return graph

    def has_windowed_variant(self) -> bool:
        """True if a window-bounded dMT graph is available.

        Either :meth:`build_dmt_windowed` is overridden, or the default
        dMT graph already bounds every inter-thread node with a window.
        """
        if type(self).build_dmt_windowed is not Workload.build_dmt_windowed:
            return True
        try:
            self.build_dmt_windowed(self.default_params())
        except WorkloadError:
            return False
        return True

    # -------------------------------------------------------------- conveniences
    def params_with_defaults(self, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """The default parameters with ``overrides`` applied.

        Each override must fit its default's type: an int parameter is a
        size, so it takes an int of at least 1 (not a bool), and a float
        parameter takes an int or a float.  An unknown name or an unfit
        value raises :class:`WorkloadError`.
        """
        params = self.default_params()
        if overrides:
            unknown = set(overrides) - set(params)
            if unknown:
                raise WorkloadError(
                    f"unknown parameter(s) {sorted(unknown)} for workload '{self.name}'"
                )
            for name, value in overrides.items():
                expected = _param_problem(params[name], value)
                if expected:
                    raise WorkloadError(
                        f"parameter '{name}' of workload '{self.name}' must be {expected}, "
                        f"got {value!r}"
                    )
            params.update(overrides)
        return params

    def prepare(
        self, params: Mapping[str, Any] | None = None, seed: int = 0
    ) -> PreparedWorkload:
        """Instantiate the workload with concrete parameters and data."""
        full = self.params_with_defaults(params)
        seed = check_seed(seed)
        rng = np.random.default_rng(seed)
        inputs = self.make_inputs(full, rng)
        expected = self.reference(full, inputs)
        return PreparedWorkload(
            workload=self, params=full, inputs=inputs, expected=expected, seed=seed
        )

    def table3_row(self) -> dict[str, str]:
        """The row of Table 3 describing this workload."""
        return {
            "application": self.name,
            "domain": self.domain,
            "kernel": self.kernel_name,
            "description": self.description,
            "suite": self.suite,
        }
