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

Both steps run over flat tables.  The greedy seed keeps unit rows, cols
and loads in lists indexed by unit id and lists each class's compatible
units once.  The refiner numbers the placed nodes 0..m-1 in
``node_to_unit`` order and keeps, per position, its unit, its allowed
units (a list and a set, shared per class) and the far end of every
incident placed edge, and per unit id its occupants by ascending
position; the swap partner is the first that may take the moved node's
unit.  A move is costed incrementally, as in VPR's placer (Betz & Rose,
FPL 1997): the delta sums ``dist[new·n + u] - dist[old·n + u]`` over the
edges of the moved node and its partner only, O(degree), from a flat
distance table built per call as one ``bytes`` object (no per-process
cache, and no Python ints or int64 temporaries: each raised peak RSS).
The move loop calls no Python function: ``rng.choice(seq)`` is inlined
as CPython 3.10-3.13 implement it (``_randbelow_with_getrandbits``: draw
``getrandbits(len(seq).bit_length())`` until it is below ``len(seq)``),
so the random stream, and with it every placement, is the one ``choice``
gives.  ``_ReferenceRefiner`` in ``tests/compiler/test_mapper.py``, which
re-walks the whole edge list per move, is the oracle it must match.

If the graph demands more nodes of a class than the grid has units, the
mapper falls back to sharing units (several nodes time-multiplex one
unit); the cycle simulator models the resulting structural hazard.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro.arch.grid import PhysicalGrid
from repro.errors import MappingError
from repro.graph.index import KernelIndex
from repro.graph.opcodes import UnitClass

__all__ = ["Placement", "GreedyPlacer", "AnnealingRefiner", "place_graph"]

#: Node classes that are not placed on the grid (handled by the streamer/sinks).
UNPLACED_CLASSES = frozenset({UnitClass.SOURCE})

#: :func:`place_graph`'s annealing iteration count and seed.
ANNEAL_ITERATIONS = 1500
ANNEAL_SEED = 0xC6A4


@dataclass
class Placement:
    """A (possibly partial) assignment of graph nodes to physical units."""

    index: KernelIndex
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
        for src, dst, _ in self.index.edges:
            src_unit = self.node_to_unit.get(src)
            dst_unit = self.node_to_unit.get(dst)
            if src_unit is None or dst_unit is None:
                continue
            total += self.grid.distance(src_unit, dst_unit)
        return total


class GreedyPlacer:
    """Topological-order greedy seed placement."""

    def __init__(self, grid: PhysicalGrid) -> None:
        self.grid = grid

    def place(self, index: KernelIndex) -> Placement:
        grid = self.grid
        placement = Placement(index=index, grid=grid)
        node_to_unit = placement.node_to_unit
        rows = [u.row for u in grid]
        cols = [u.col for u in grid]
        usage = [0] * len(grid)
        compatible: dict[UnitClass, list[int]] = {}

        for node in index.order:
            unit_class = index.unit_class[node.node_id]
            if unit_class in UNPLACED_CLASSES:
                continue
            units = compatible.get(unit_class)
            if units is None:
                units = [u.unit_id for u in grid.units_compatible_with(unit_class)]
                compatible[unit_class] = units
            if not units:
                raise MappingError(
                    f"no physical unit can host node {node.label()} (class {unit_class.value})"
                )
            candidates = [u for u in units if not usage[u]]
            if not candidates:
                # Every compatible unit is taken: share the least-loaded ones.
                min_load = min(map(usage.__getitem__, units))
                candidates = [u for u in units if usage[u] == min_load]
            predecessors = {edge.src for edge in index.inputs[node.node_id]}
            placed = [node_to_unit[n] for n in predecessors if n in node_to_unit]
            target = candidates[0]
            if placed:
                # The first candidate nearest the neighbours' centroid.
                crow = sum(map(rows.__getitem__, placed)) / len(placed)
                ccol = sum(map(cols.__getitem__, placed)) / len(placed)
                best = math.inf
                for u in candidates:
                    cost = abs(rows[u] - crow) + abs(cols[u] - ccol)
                    if cost < best:
                        best, target = cost, u
            node_to_unit[node.node_id] = target
            usage[target] += 1
        return placement


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
        index = placement.index
        grid = placement.grid
        node_to_unit = placement.node_to_unit
        placed_nodes = list(node_to_unit)
        count = len(placed_nodes)
        if count < 2 or self.iterations == 0:
            return placement
        rng = random.Random(self.seed)
        getrandbits, uniform, exp, insort = rng.getrandbits, rng.random, math.exp, bisect.insort
        temperature = self.initial_temperature
        cooling = self.cooling

        position = {node_id: pos for pos, node_id in enumerate(placed_nodes)}
        unit = list(node_to_unit.values())
        classes = [index.unit_class[node_id] for node_id in placed_nodes]
        by_class = {c: [u.unit_id for u in grid.units_compatible_with(c)] for c in set(classes)}
        sets = {c: frozenset(units) for c, units in by_class.items()}
        allowed = [by_class[c] for c in classes]
        allowed_set = [sets[c] for c in classes]
        # Parallel edges keep their multiplicity; self-loops never change
        # length and edges from unplaced sources have none.
        neighbours: list[list[int]] = [[] for _ in placed_nodes]
        for edge in index.edges:
            src, dst = position.get(edge.src), position.get(edge.dst)
            if src is None or dst is None or src == dst:
                continue
            neighbours[src].append(dst)
            neighbours[dst].append(src)
        occupants: list[list[int]] = [[] for _ in range(len(grid))]
        for pos, unit_id in enumerate(unit):
            occupants[unit_id].append(pos)
        dist, stride = _distance_table(grid), len(grid)

        count_bits = count.bit_length()
        for _ in range(self.iterations):
            # ``rng.choice(seq)``, inlined: ``_randbelow_with_getrandbits``.
            pos = getrandbits(count_bits)
            while pos >= count:
                pos = getrandbits(count_bits)
            units = allowed[pos]
            n = len(units)
            bits = n.bit_length()
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            new_unit = units[r]
            old_unit = unit[pos]
            if new_unit == old_unit:
                temperature *= cooling
                continue
            partner = -1
            for other in occupants[new_unit]:
                if old_unit in allowed_set[other]:
                    partner = other
                    break

            # An edge between the two swapped nodes keeps its length.
            to_new, to_old = new_unit * stride, old_unit * stride
            delta = 0
            for other in neighbours[pos]:
                if other != partner:
                    at = unit[other]
                    delta += dist[to_new + at] - dist[to_old + at]
            if partner >= 0:
                for other in neighbours[partner]:
                    if other != pos:
                        at = unit[other]
                        delta += dist[to_old + at] - dist[to_new + at]

            if delta <= 0 or uniform() < exp(-delta / max(temperature, 1e-9)):
                unit[pos] = new_unit
                occupants[old_unit].remove(pos)
                if partner >= 0:
                    unit[partner] = old_unit
                    occupants[new_unit].remove(partner)
                    insort(occupants[old_unit], partner)
                insort(occupants[new_unit], pos)
            temperature *= cooling
        for node_id, unit_id in zip(placed_nodes, unit):
            node_to_unit[node_id] = unit_id
        return placement


def _distance_table(grid: PhysicalGrid) -> bytes | list[int]:
    """Manhattan distances, unit ``a`` to unit ``b`` at ``a * len(grid) + b``."""
    rows = np.array([u.row for u in grid], dtype=np.int16)
    cols = np.array([u.col for u in grid], dtype=np.int16)
    table = np.abs(rows[:, None] - rows)
    table += np.abs(cols[:, None] - cols)
    if table.max(initial=0) < 256:
        return table.astype(np.uint8).tobytes()
    return table.ravel().tolist()


def place_graph(
    index: KernelIndex,
    grid: PhysicalGrid,
    anneal_iterations: int = ANNEAL_ITERATIONS,
    seed: int = ANNEAL_SEED,
) -> Placement:
    """Greedy seed followed by annealing refinement of ``index``'s graph."""
    seed_placement = GreedyPlacer(grid).place(index)
    refiner = AnnealingRefiner(iterations=anneal_iterations, seed=seed)
    return refiner.refine(seed_placement)
