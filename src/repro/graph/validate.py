"""Structural validation of kernel dataflow graphs.

``compile_kernel`` runs validation on its input and after every pass
that changed the graph's structure; it rejects
graphs that cannot be configured onto the CGRA: missing operands,
non-temporal cycles, malformed elevator/eLDST parameters, sinks driving
consumers and similar structural mistakes.

The checks themselves live in the analyzer's structure pass
(:mod:`repro.analyze.structure`), which reports each problem as a
:class:`~repro.analyze.diagnostics.Diagnostic` with a stable ``RA00x``
code and node provenance; :func:`validate_graph` raises with their
messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analyze.structure import structure_diagnostics
from repro.errors import GraphValidationError
from repro.graph.dfg import DataflowGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.diagnostics import Diagnostic

__all__ = ["structure_diagnostics", "validate_graph"]


def validate_graph(graph: DataflowGraph) -> None:
    """Raise :class:`GraphValidationError` listing every structural problem."""
    diagnostics: "list[Diagnostic]" = structure_diagnostics(graph)
    if diagnostics:
        joined = "\n  - ".join(d.message for d in diagnostics)
        raise GraphValidationError(
            f"dataflow graph '{graph.name}' failed validation:\n  - {joined}"
        )
