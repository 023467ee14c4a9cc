"""Graph replication analysis.

"Prior to executing a kernel, the functional units and interconnect are
configured to execute a dataflow graph that consists of one or more
replicas of the kernel's dataflow graph" (Sec. 3).  Replication fills
otherwise-idle functional units and multiplies the thread injection rate.

This pass does not physically copy the graph — the cycle simulator treats
``replicas`` as the per-node issue width, which is throughput-equivalent —
but it performs the same resource arithmetic the real toolchain would:
the replica count is the largest R such that R copies of the per-class
unit demand fit the grid inventory, capped by ``max_graph_replicas``.
"""

from __future__ import annotations

from typing import Mapping

from repro.arch.grid import COMPATIBLE_CLASSES
from repro.compiler.passes.base import Pass, PassResult
from repro.config.system import SystemConfig
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import UnitClass

__all__ = ["ReplicatePass", "max_replicas"]


def max_replicas(demand: Mapping[UnitClass, int], config: SystemConfig) -> int:
    """Largest replica count whose combined unit ``demand`` fits the grid.

    ``demand`` is a graph's :meth:`~repro.graph.dfg.DataflowGraph.unit_demand`.
    """
    grid = config.grid
    units = {
        UnitClass.ALU: grid.num_alu,
        UnitClass.FPU: grid.num_fpu,
        UnitClass.SPECIAL: grid.num_special,
        UnitClass.LDST: grid.num_ldst,
        UnitClass.CONTROL: grid.num_control,
        UnitClass.SPLIT_JOIN: grid.num_split_join,
    }
    best = config.max_graph_replicas
    for unit_class, needed in demand.items():
        if unit_class in (UnitClass.SINK, UnitClass.BARRIER):
            continue
        capacity = sum(units[cls] for cls in COMPATIBLE_CLASSES[unit_class])
        if capacity < needed:
            return 1
        best = min(best, capacity // needed)
    return max(1, best)


class ReplicatePass(Pass):
    """Record the replica count the grid can sustain in the graph metadata."""

    name = "replicate"

    def run(self, graph: DataflowGraph, config: SystemConfig) -> PassResult:
        result = PassResult(self.name)
        demand = graph.unit_demand()
        replicas = max_replicas(demand, config)
        # Metadata only: the structure is unchanged, so ``changed`` stays False.
        graph.metadata["replicas"] = replicas
        result.metrics["replicas"] = replicas
        ordered = sorted(demand.items(), key=lambda x: x[0].value)
        demand_text = ", ".join(f"{k.value}: {v}" for k, v in ordered)
        result.note(
            f"graph '{graph.name}' replicated {replicas}x (demand {{{demand_text}}})"
        )
        return result
