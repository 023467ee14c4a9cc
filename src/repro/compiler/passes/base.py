"""Compiler pass infrastructure.

A pass transforms a :class:`~repro.graph.dfg.DataflowGraph` in place and
reports what it did through a :class:`PassResult`.
:func:`~repro.compiler.pipeline.compile_kernel` runs the five passes in
order and re-validates the graph after each one that changed its
structure, so a broken pass is caught at the point it breaks the graph,
not three passes later.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.config.system import SystemConfig
from repro.graph.dfg import DataflowGraph

__all__ = ["PassResult", "Pass"]


@dataclass
class PassResult:
    """Outcome of one pass over one graph."""

    pass_name: str
    #: The pass edited the structure validation checks (nodes, edges or
    #: node params); a metadata-only pass leaves it False.
    changed: bool = False
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, int] = field(default_factory=dict)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def bump(self, metric: str, amount: int = 1) -> None:
        self.metrics[metric] = self.metrics.get(metric, 0) + amount
        if amount:
            self.changed = True


class Pass(abc.ABC):
    """Base class of every compiler pass."""

    #: Human-readable pass name (defaults to the class name).
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    @abc.abstractmethod
    def run(self, graph: DataflowGraph, config: SystemConfig) -> PassResult:
        """Transform ``graph`` in place and describe what happened."""
