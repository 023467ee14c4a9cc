"""The kernel dataflow graph (DFG).

A :class:`DataflowGraph` is the static program representation executed by
both the MT-CGRA and dMT-CGRA simulators.  Nodes are static instructions,
edges move tokens from a producer's output port to a consumer's operand
port.  Edges *into* temporal nodes (``ELEVATOR``/``ELDST``) are *temporal
edges*: at run time they connect different dynamic instances of the graph
(i.e. different threads), which is exactly the paper's mechanism for
direct inter-thread communication.  Because of those edges the static
graph may contain cycles (e.g. the prefix-sum recurrence of Fig. 6); the
graph is still required to be acyclic once temporal input edges are
removed.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Iterable, Iterator

from repro.errors import GraphError
from repro.graph.node import Edge, Node
from repro.graph.opcodes import DType, Opcode, UnitClass, opcode_info

__all__ = ["DataflowGraph", "kahn_order"]


def kahn_order(node_ids: Iterable[int], edges: Iterable[tuple[int, int, int]]) -> list[int] | None:
    """Kahn's topological order of ``node_ids`` over ``(src, dst, port)``
    edges; ``None`` on a cycle.

    The sources start in ascending id order, and each node releases its
    consumers in the order of ``edges``.
    """
    indeg = dict.fromkeys(node_ids, 0)
    succ: dict[int, list[int]] = defaultdict(list)
    for src, dst, _ in edges:
        indeg[dst] += 1
        succ[src].append(dst)
    queue = deque(sorted(nid for nid, d in indeg.items() if d == 0))
    order: list[int] = []
    while queue:
        nid = queue.popleft()
        order.append(nid)
        for nxt in succ[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return order if len(order) == len(indeg) else None


class DataflowGraph:
    """A mutable dataflow graph with explicit operand ports."""

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._inputs: dict[int, dict[int, int]] = defaultdict(dict)  # dst -> port -> src
        self._next_id = 0
        self.metadata: dict[str, Any] = {}

    # ------------------------------------------------------------------ build
    def add_node(
        self,
        opcode: Opcode,
        dtype: DType = DType.I32,
        params: dict[str, Any] | None = None,
        name: str = "",
    ) -> Node:
        """Create a node and add it to the graph."""
        node = Node(
            node_id=self._next_id,
            opcode=opcode,
            dtype=dtype,
            params=dict(params or {}),
            name=name,
        )
        self._nodes[node.node_id] = node
        self._next_id += 1
        return node

    def add_edge(self, src: int | Node, dst: int | Node, dst_port: int) -> Edge:
        """Connect ``src``'s output to operand ``dst_port`` of ``dst``."""
        src_id = src.node_id if isinstance(src, Node) else src
        dst_id = dst.node_id if isinstance(dst, Node) else dst
        if src_id not in self._nodes:
            raise GraphError(f"unknown source node {src_id}")
        if dst_id not in self._nodes:
            raise GraphError(f"unknown destination node {dst_id}")
        if not opcode_info(self._nodes[src_id].opcode).has_output:
            raise GraphError(f"node {self._nodes[src_id].label()} has no output port")
        if dst_port in self._inputs[dst_id]:
            raise GraphError(
                f"operand {dst_port} of {self._nodes[dst_id].label()} is already driven"
            )
        info = opcode_info(self._nodes[dst_id].opcode)
        if dst_port < 0:
            raise GraphError(f"operand port must be non-negative, got {dst_port}")
        if dst_port >= info.max_arity:
            raise GraphError(
                f"{self._nodes[dst_id].label()} accepts at most {info.max_arity} operands"
            )
        self._inputs[dst_id][dst_port] = src_id
        return Edge(src_id, dst_id, dst_port)

    def remove_node(self, node_id: int) -> None:
        """Remove a node and every edge touching it."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id}")
        del self._nodes[node_id]
        self._inputs.pop(node_id, None)
        for ports in self._inputs.values():
            for port in [p for p, s in ports.items() if s == node_id]:
                del ports[port]

    def replace_input(self, dst: int | Node, dst_port: int, new_src: int | Node) -> None:
        """Redirect operand ``dst_port`` of ``dst`` to ``new_src``."""
        dst_id = dst.node_id if isinstance(dst, Node) else dst
        src_id = new_src.node_id if isinstance(new_src, Node) else new_src
        if dst_id not in self._nodes or src_id not in self._nodes:
            raise GraphError("replace_input on unknown node")
        if dst_port not in self._inputs[dst_id]:
            raise GraphError(
                f"operand {dst_port} of {self._nodes[dst_id].label()} is not driven"
            )
        self._inputs[dst_id][dst_port] = src_id

    # ------------------------------------------------------------------ query
    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise GraphError(f"unknown node {node_id}") from exc

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def edges(self) -> Iterator[Edge]:
        for dst_id, ports in self._inputs.items():
            for port, src_id in sorted(ports.items()):
                yield Edge(src_id, dst_id, port)

    def num_edges(self) -> int:
        return sum(len(p) for p in self._inputs.values())

    def inputs_of(self, node_id: int) -> dict[int, int]:
        """Return ``{operand_port: src_node_id}`` for ``node_id``."""
        return dict(self._inputs.get(node_id, {}))

    def successors(self, node_id: int) -> list[tuple[int, int]]:
        """Return ``[(dst_node_id, dst_port), ...]`` fed by ``node_id``."""
        out: list[tuple[int, int]] = []
        for dst_id, ports in self._inputs.items():
            for port, src_id in ports.items():
                if src_id == node_id:
                    out.append((dst_id, port))
        return sorted(out)

    def predecessors(self, node_id: int) -> list[int]:
        return sorted(set(self._inputs.get(node_id, {}).values()))

    def nodes_with_opcode(self, *opcodes: Opcode) -> list[Node]:
        wanted = set(opcodes)
        return [n for n in self._nodes.values() if n.opcode in wanted]

    def copy(self, name: str | None = None) -> "DataflowGraph":
        """Return a deep structural copy of the graph."""
        clone = DataflowGraph(name or self.name)
        clone._next_id = self._next_id
        for nid, node in self._nodes.items():
            clone._nodes[nid] = Node(
                node_id=nid,
                opcode=node.opcode,
                dtype=node.dtype,
                params=dict(node.params),
                name=node.name,
            )
        for dst, ports in self._inputs.items():
            clone._inputs[dst] = dict(ports)
        clone.metadata = dict(self.metadata)
        return clone

    # ----------------------------------------------------------------- stats
    def unit_demand(self) -> dict[UnitClass, int]:
        """Number of physical units of each class required to map this graph."""
        demand: dict[UnitClass, int] = defaultdict(int)
        for node in self._nodes.values():
            if node.unit_class is UnitClass.SOURCE:
                continue  # sources are injected by the streamer, not placed
            demand[node.unit_class] += 1
        return dict(demand)
