"""Placement of dataflow nodes onto the physical CGRA grid.

The mapper assigns every placeable node of the (legalised) dataflow graph
to a physical unit whose class can host it (control units host elevator
nodes, LDST units host eLDST units, ...).  The objective is the total
Manhattan wire length of the graph's edges — the quantity that determines
NoC hop counts, and therefore both communication latency and NoC energy.

The algorithm is the classic two-step used by CGRA mappers:

1. a *greedy seed*: nodes are placed in topological order, each on the
   free compatible unit closest to the centroid of its already-placed
   neighbours;
2. *simulated-annealing refinement*: pairwise swaps / moves within the
   compatible unit set, accepted with the Metropolis criterion under a
   geometric cooling schedule (deterministically seeded so builds are
   reproducible).

Each annealing move is costed incrementally, as in VPR's placer (Betz &
Rose, FPL 1997): the refiner lists every placed node's incident placed
edges once, keeps a unit -> occupants index and the unit coordinates in
flat lists, so a move's wire-length delta is summed over the edges of the
moved node and its swap partner only — O(degree), not O(edges).  The
swap partner is the first compatible occupant of the target unit in
``node_to_unit`` order.

If the graph demands more nodes of a class than the grid has units, the
mapper falls back to sharing units (several nodes time-multiplex one
unit); the cycle simulator models the resulting structural hazard.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from repro.arch.grid import PhysicalGrid
from repro.errors import MappingError
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import UnitClass

__all__ = ["Placement", "GreedyPlacer", "AnnealingRefiner", "place_graph"]

#: Node classes that are not placed on the grid (handled by the streamer/sinks).
UNPLACED_CLASSES = frozenset({UnitClass.SOURCE})


@dataclass
class Placement:
    """A (possibly partial) assignment of graph nodes to physical units."""

    graph: DataflowGraph
    grid: PhysicalGrid
    node_to_unit: dict[int, int] = field(default_factory=dict)

    def unit_of(self, node_id: int) -> int | None:
        return self.node_to_unit.get(node_id)

    def shared_units(self) -> dict[int, int]:
        """Units hosting more than one node: ``{unit_id: node_count}``."""
        counts: dict[int, int] = {}
        for unit in self.node_to_unit.values():
            counts[unit] = counts.get(unit, 0) + 1
        return {u: c for u, c in counts.items() if c > 1}

    def wire_length(self) -> int:
        """Total Manhattan length of all placed edges."""
        total = 0
        for edge in self.graph.edges():
            src_unit = self.node_to_unit.get(edge.src)
            dst_unit = self.node_to_unit.get(edge.dst)
            if src_unit is None or dst_unit is None:
                continue
            total += self.grid.distance(src_unit, dst_unit)
        return total

    def max_edge_distance(self) -> int:
        longest = 0
        for edge in self.graph.edges():
            src_unit = self.node_to_unit.get(edge.src)
            dst_unit = self.node_to_unit.get(edge.dst)
            if src_unit is None or dst_unit is None:
                continue
            longest = max(longest, self.grid.distance(src_unit, dst_unit))
        return longest


class GreedyPlacer:
    """Topological-order greedy seed placement."""

    def __init__(self, grid: PhysicalGrid) -> None:
        self.grid = grid

    def place(self, graph: DataflowGraph) -> Placement:
        placement = Placement(graph=graph, grid=self.grid)
        free_units: dict[UnitClass, list[int]] = {
            cls: [u.unit_id for u in self.grid.units_of_class(cls)]
            for cls in self.grid.capacity()
        }
        usage: dict[int, int] = {}

        for node in graph.topological_order(ignore_temporal=True):
            if node.unit_class in UNPLACED_CLASSES:
                continue
            candidates = self._candidate_units(node.unit_class, free_units, usage)
            if not candidates:
                raise MappingError(
                    f"no physical unit can host node {node.label()} "
                    f"(class {node.unit_class.value})"
                )
            target = self._closest_to_neighbours(node.node_id, candidates, placement)
            placement.node_to_unit[node.node_id] = target
            usage[target] = usage.get(target, 0) + 1
        return placement

    def _candidate_units(
        self,
        node_class: UnitClass,
        free_units: dict[UnitClass, list[int]],
        usage: dict[int, int],
    ) -> list[int]:
        compatible = self.grid.units_compatible_with(node_class)
        if not compatible:
            return []
        unused = [u.unit_id for u in compatible if usage.get(u.unit_id, 0) == 0]
        if unused:
            return unused
        # Every compatible unit is taken: share the least-loaded ones.
        min_load = min(usage.get(u.unit_id, 0) for u in compatible)
        return [u.unit_id for u in compatible if usage.get(u.unit_id, 0) == min_load]

    def _closest_to_neighbours(
        self, node_id: int, candidates: list[int], placement: Placement
    ) -> int:
        graph = placement.graph
        placed_neighbours = [
            placement.node_to_unit[n]
            for n in graph.predecessors(node_id)
            if n in placement.node_to_unit
        ]
        if not placed_neighbours:
            return candidates[0]
        rows = [placement.grid.unit(u).row for u in placed_neighbours]
        cols = [placement.grid.unit(u).col for u in placed_neighbours]
        crow = sum(rows) / len(rows)
        ccol = sum(cols) / len(cols)

        def cost(unit_id: int) -> float:
            unit = placement.grid.unit(unit_id)
            return abs(unit.row - crow) + abs(unit.col - ccol)

        return min(candidates, key=cost)


class AnnealingRefiner:
    """Simulated-annealing refinement of a seed placement."""

    def __init__(
        self,
        iterations: int = 2000,
        initial_temperature: float = 4.0,
        cooling: float = 0.995,
        seed: int = 0xC6A4,
    ) -> None:
        if iterations < 0:
            raise MappingError("iterations must be non-negative")
        if not 0.0 < cooling < 1.0:
            raise MappingError("cooling factor must be in (0, 1)")
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.seed = seed

    def refine(self, placement: Placement) -> Placement:
        graph = placement.graph
        grid = placement.grid
        node_to_unit = placement.node_to_unit
        placed_nodes = list(node_to_unit)
        if len(placed_nodes) < 2 or self.iterations == 0:
            return placement
        rng = random.Random(self.seed)
        temperature = self.initial_temperature

        # Pre-compute, per node, the units it may occupy (one list and one
        # set per unit class, shared by every node of that class).
        by_class: dict[UnitClass, tuple[list[int], frozenset[int]]] = {}
        allowed: dict[int, list[int]] = {}
        allowed_set: dict[int, frozenset[int]] = {}
        for node_id in placed_nodes:
            unit_class = graph.node(node_id).unit_class
            if unit_class not in by_class:
                units = [u.unit_id for u in grid.units_compatible_with(unit_class)]
                by_class[unit_class] = (units, frozenset(units))
            allowed[node_id], allowed_set[node_id] = by_class[unit_class]

        # Unit coordinates, indexed by unit id.
        rows = [u.row for u in grid]
        cols = [u.col for u in grid]

        # Per placed node, the far endpoint of every incident placed edge
        # (one entry per edge, so parallel edges keep their multiplicity).
        # Self-loops never change length and edges from unplaced sources
        # have none, so neither is listed.
        neighbours: dict[int, list[int]] = {node_id: [] for node_id in placed_nodes}
        for edge in graph.edges():
            src, dst = edge.src, edge.dst
            if src == dst or src not in neighbours or dst not in neighbours:
                continue
            neighbours[src].append(dst)
            neighbours[dst].append(src)

        # Unit -> positions (in ``node_to_unit`` insertion order) of the
        # nodes it hosts; the swap partner is the first eligible one.
        occupants: dict[int, list[int]] = {}
        for pos, node_id in enumerate(placed_nodes):
            occupants.setdefault(node_to_unit[node_id], []).append(pos)
        position = {node_id: pos for pos, node_id in enumerate(placed_nodes)}

        for _ in range(self.iterations):
            node_id = rng.choice(placed_nodes)
            old_unit = node_to_unit[node_id]
            new_unit = rng.choice(allowed[node_id])
            if new_unit == old_unit:
                temperature *= self.cooling
                continue
            swap_partner = None
            for pos in occupants.get(new_unit, ()):
                if old_unit in allowed_set[placed_nodes[pos]]:
                    swap_partner = placed_nodes[pos]
                    break

            # Wire-length change of the edges touching the moved node(s).
            # An edge between the two swapped nodes keeps its length.
            old_r, old_c = rows[old_unit], cols[old_unit]
            new_r, new_c = rows[new_unit], cols[new_unit]
            delta = 0
            for other in neighbours[node_id]:
                if other == swap_partner:
                    continue
                unit = node_to_unit[other]
                r, c = rows[unit], cols[unit]
                delta += abs(new_r - r) + abs(new_c - c) - abs(old_r - r) - abs(old_c - c)
            if swap_partner is not None:
                for other in neighbours[swap_partner]:
                    if other == node_id:
                        continue
                    unit = node_to_unit[other]
                    r, c = rows[unit], cols[unit]
                    delta += abs(old_r - r) + abs(old_c - c) - abs(new_r - r) - abs(new_c - c)

            accept = delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9))
            if accept:
                node_to_unit[node_id] = new_unit
                occupants[old_unit].remove(position[node_id])
                if swap_partner is not None:
                    node_to_unit[swap_partner] = old_unit
                    occupants[new_unit].remove(position[swap_partner])
                    bisect.insort(occupants[old_unit], position[swap_partner])
                bisect.insort(occupants.setdefault(new_unit, []), position[node_id])
            temperature *= self.cooling
        return placement


def place_graph(
    graph: DataflowGraph,
    grid: PhysicalGrid,
    anneal_iterations: int = 2000,
    seed: int = 0xC6A4,
) -> Placement:
    """Greedy seed followed by annealing refinement."""
    seed_placement = GreedyPlacer(grid).place(graph)
    refiner = AnnealingRefiner(iterations=anneal_iterations, seed=seed)
    return refiner.refine(seed_placement)
