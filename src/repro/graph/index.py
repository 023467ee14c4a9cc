"""The frozen index of one compiled kernel graph.

The compiler's passes edit a mutable :class:`~repro.graph.dfg.DataflowGraph`;
once the last pass has run, :func:`~repro.compiler.pipeline.compile_kernel`
indexes the result once and every later reader takes its adjacency from
the :class:`KernelIndex` on the :class:`~repro.compiler.pipeline.CompiledKernel`
instead of walking the graph again: placement and its memo key, routing,
the analyzer's passes and both engines.  This mirrors the paper's
toolchain (Sec. 5.1), which lowers a kernel to one static configuration
that the fabric only reads.

The index is built in two steps.  :meth:`KernelIndex.of` holds the
structure: the nodes in insertion order, each node's unit class, the
edges in ``graph.edges()`` order (which the placement memo key and the
annealer's node order depend on), each node's operand edges by port and
consumer edges sorted by ``(dst, port)`` with the push offset of each,
both topological orders and the strongly connected components.  The
per-node edge lists hold the same :class:`~repro.graph.node.Edge`
objects as ``edges``.
:meth:`KernelIndex.routed` adds what depends on the configuration and
the routing: each node's unit latency and each edge's hops and token
latency.  Its ``edge_hops`` is the compiled kernel's one hop table.
Neither step changes an index in place.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import GraphError
from repro.graph.dfg import DataflowGraph, kahn_order
from repro.graph.node import Edge, Node
from repro.graph.opcodes import Opcode, UnitClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.system import SystemConfig

__all__ = ["KernelIndex"]

#: An edge's ``(dst, port)``, the order of each node's ``successors``.
_by_consumer = operator.itemgetter(1, 2)


@dataclass(frozen=True, eq=False)
class KernelIndex:
    """Read-only adjacency and timing tables of one kernel graph.

    Frozen; its dicts and tuples are never changed after construction."""

    name: str
    metadata: dict[str, Any]
    #: Every node, in graph insertion order.
    nodes: tuple[Node, ...]
    by_id: dict[int, Node]
    unit_class: dict[int, UnitClass]
    #: Every edge, in ``graph.edges()`` order.
    edges: tuple[Edge, ...]
    #: The edges into each node, by ascending operand port.
    inputs: dict[int, tuple[Edge, ...]]
    #: The edges out of each node, sorted by ``(dst, port)``: the order a
    #: firing pushes its tokens in.
    successors: dict[int, tuple[Edge, ...]]
    #: Each edge's position in its source's ``successors``.
    push_offset: dict[Edge, int]
    #: Kahn's order without the temporal edges into ELEVATORs.
    order: tuple[Node, ...]
    #: Kahn's order over every edge; ``None`` when a recurrence makes a cycle.
    full_order: tuple[Node, ...] | None
    #: The strongly connected components over every edge, in reverse
    #: topological order (Tarjan's, when a recurrence makes a cycle).
    components: tuple[tuple[int, ...], ...]
    #: Filled in by :meth:`routed`: each node's unit latency, and each
    #: ``(src, dst)`` edge's routed hops and token transfer latency.
    unit_latency: dict[int, int] = dataclasses.field(default_factory=dict)
    edge_hops: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)
    edge_latency: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)

    @classmethod
    def of(cls, graph: DataflowGraph) -> "KernelIndex":
        """Index ``graph``'s structure; raises :class:`GraphError` on a
        cycle through non-temporal edges (the edges into ELEVATORs are the
        temporal ones)."""
        nodes = tuple(graph.nodes)
        by_id = {node.node_id: node for node in nodes}
        edges = tuple(graph.edges())
        inputs: dict[int, list[Edge]] = {nid: [] for nid in by_id}
        successors: dict[int, list[Edge]] = {nid: [] for nid in by_id}
        structural: list[Edge] = []
        for edge in edges:
            # ``edges()`` yields each node's operands together, by port.
            inputs[edge.dst].append(edge)
            successors[edge.src].append(edge)
            if by_id[edge.dst].opcode is not Opcode.ELEVATOR:
                structural.append(edge)
        push_offset: dict[Edge, int] = {}
        for succ in successors.values():
            succ.sort(key=_by_consumer)
            for offset, edge in enumerate(succ):
                push_offset[edge] = offset
        order = kahn_order(by_id, structural)
        if order is None:
            raise GraphError(
                f"graph '{graph.name}' contains a cycle through non-temporal edges"
            )
        # Without temporal edges both orders are one.
        full_order = order if len(structural) == len(edges) else kahn_order(by_id, edges)
        if full_order is None:
            targets: dict[int, list[int]] = {nid: [] for nid in by_id}
            for src, dst, _ in edges:
                targets[src].append(dst)
            components = _strongly_connected_components(list(by_id), targets)
        else:
            # Acyclic: one node per component, closed in reverse topological order.
            components = tuple((nid,) for nid in reversed(full_order))
        return cls(
            name=graph.name,
            metadata=dict(graph.metadata),
            nodes=nodes,
            by_id=by_id,
            unit_class={nid: node.unit_class for nid, node in by_id.items()},
            edges=edges,
            inputs={nid: tuple(ins) for nid, ins in inputs.items()},
            successors={nid: tuple(succ) for nid, succ in successors.items()},
            push_offset=push_offset,
            order=tuple(by_id[nid] for nid in order),
            full_order=None if full_order is None else tuple(by_id[nid] for nid in full_order),
            components=components,
        )

    def routed(self, config: "SystemConfig", hops: dict[tuple[int, int], int]) -> "KernelIndex":
        """This index with the unit latencies of ``config`` and the edge
        timing of ``hops``, the routed hop count of each ``(src, dst)`` pair
        (:func:`~repro.compiler.mapper.routing.route_placement`).

        A token's transfer latency is the NoC injection latency plus one
        ``hop_latency`` per routed hop, at least one cycle; the hop count
        itself is what ``noc_hops`` accounting charges.  Both engines and
        the analyzer's critical path read these tables, which is part of
        the engines' equivalence contract.
        """
        lat = config.latency
        by_class = {
            UnitClass.ALU: lat.alu,
            UnitClass.FPU: lat.fpu,
            UnitClass.SPECIAL: lat.special,
            UnitClass.CONTROL: lat.control,
            UnitClass.SPLIT_JOIN: lat.split_join,
            UnitClass.ELEVATOR: lat.elevator,
            UnitClass.BARRIER: lat.control,
            UnitClass.LDST: lat.ldst_issue,
            UnitClass.ELDST: lat.ldst_issue,
            UnitClass.SINK: 1,
            UnitClass.SOURCE: 0,
        }
        base, per_hop = config.noc.injection_latency, config.noc.hop_latency
        return dataclasses.replace(
            self,
            unit_latency={nid: by_class[c] for nid, c in self.unit_class.items()},
            edge_hops=hops,
            edge_latency={pair: max(1, base + h * per_hop) for pair, h in hops.items()},
        )

    def nodes_with_opcode(self, *opcodes: Opcode) -> list[Node]:
        """The nodes with one of ``opcodes``, in insertion order."""
        return [node for node in self.nodes if node.opcode in opcodes]


def _strongly_connected_components(
    nodes: list[int], successors: dict[int, list[int]]
) -> tuple[tuple[int, ...], ...]:
    """Iterative Tarjan SCC over the given adjacency."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            nid, child = work[-1]
            if child == 0:
                index[nid] = lowlink[nid] = counter
                counter += 1
                stack.append(nid)
                on_stack.add(nid)
            advanced = False
            succ = successors[nid]
            while child < len(succ):
                nxt = succ[child]
                child += 1
                if nxt not in index:
                    work[-1] = (nid, child)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[nid] = min(lowlink[nid], index[nxt])
            if advanced:
                continue
            work.pop()
            if lowlink[nid] == index[nid]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == nid:
                        break
                components.append(tuple(component))
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[nid])
    return tuple(components)
