"""Tests for placement and routing."""

import math
import random

import pytest

from repro.arch.grid import PhysicalGrid
from repro.compiler.mapper.placement import AnnealingRefiner, GreedyPlacer, Placement, place_graph
from repro.compiler.mapper.routing import route_placement
from repro.compiler.pipeline import CompilerOptions, compile_kernel
from repro.config.system import CgraGridConfig, NocConfig
from repro.graph.opcodes import UnitClass
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.workloads.convolution import ConvolutionWorkload
from repro.workloads.registry import get_workload, registry_kernels


def _graph():
    return ConvolutionWorkload().build_dmt({"n": 64, "k0": 0.25, "k1": 0.5, "k2": 0.25})


def test_greedy_placement_respects_unit_classes():
    graph = _graph()
    grid = PhysicalGrid(CgraGridConfig())
    placement = GreedyPlacer(grid).place(graph)
    for node in graph.nodes:
        if node.unit_class is UnitClass.SOURCE:
            assert placement.unit_of(node.node_id) is None
            continue
        unit_id = placement.unit_of(node.node_id)
        unit = grid.unit(unit_id)
        compatible = {u.unit_id for u in grid.units_compatible_with(node.unit_class)}
        assert unit.unit_id in compatible


def test_annealing_does_not_increase_wire_length():
    graph = _graph()
    grid = PhysicalGrid(CgraGridConfig())
    seed = GreedyPlacer(grid).place(graph)
    before = seed.wire_length()
    refined = AnnealingRefiner(iterations=800, seed=1).refine(seed)
    assert refined.wire_length() <= before * 1.25  # annealing may wander slightly


def test_placement_is_deterministic_for_fixed_seed():
    graph = _graph()
    grid = PhysicalGrid(CgraGridConfig())
    a = place_graph(graph, grid, anneal_iterations=300, seed=7)
    b = place_graph(graph.copy(), grid, anneal_iterations=300, seed=7)
    assert a.node_to_unit == b.node_to_unit


def test_routing_produces_hops_for_every_placed_edge():
    graph = _graph()
    grid = PhysicalGrid(CgraGridConfig())
    placement = place_graph(graph, grid, anneal_iterations=200)
    mapping = route_placement(placement, NocConfig())
    assert len(mapping.edge_hops) == graph.num_edges()
    assert mapping.total_hops >= 0
    assert mapping.mean_hops >= 0.0
    # hop count between two placed nodes equals their Manhattan distance
    for edge in graph.edges():
        assert mapping.hops_between_nodes(edge.src, edge.dst) == mapping.hops_for_edge(edge)
        src_unit = placement.unit_of(edge.src)
        dst_unit = placement.unit_of(edge.dst)
        if src_unit is None or dst_unit is None:
            continue
        assert mapping.hops_for_edge(edge) == grid.distance(src_unit, dst_unit)
    # node pairs without an edge fall back to the grid distance
    placed = list(placement.node_to_unit)
    linked = {(edge.src, edge.dst) for edge in graph.edges()}
    src, dst = next((a, b) for a in placed for b in placed if a != b and (a, b) not in linked)
    expected = grid.distance(placement.unit_of(src), placement.unit_of(dst))
    assert mapping.hops_between_nodes(src, dst) == expected


def test_oversubscribed_graph_shares_units():
    # A graph with more LDST-class nodes than physical LDST units.
    from repro.workloads.matmul import MatmulWorkload

    graph = MatmulWorkload().build_mt({"dim": 16})
    grid = PhysicalGrid(CgraGridConfig())
    placement = place_graph(graph, grid, anneal_iterations=100)
    assert placement.shared_units()  # at least one unit hosts several nodes


class _ReferenceRefiner(AnnealingRefiner):
    """The original O(E)-per-move annealing loop, kept as the test oracle.

    ``refine`` recomputes the wire length of every edge touching the moved
    nodes by walking the whole edge list before and after the move, and
    finds the swap partner by scanning ``node_to_unit``.  The production
    refiner must reproduce its placements node for node.
    """

    def refine(self, placement: Placement) -> Placement:
        graph = placement.graph
        grid = placement.grid
        placed_nodes = list(placement.node_to_unit)
        if len(placed_nodes) < 2 or self.iterations == 0:
            return placement
        rng = random.Random(self.seed)
        temperature = self.initial_temperature
        current_cost = placement.wire_length()

        # Pre-compute, per node, the units it may occupy.
        allowed: dict[int, list[int]] = {}
        for node_id in placed_nodes:
            node = graph.node(node_id)
            allowed[node_id] = [
                u.unit_id for u in grid.units_compatible_with(node.unit_class)
            ]

        for _ in range(self.iterations):
            node_id = rng.choice(placed_nodes)
            old_unit = placement.node_to_unit[node_id]
            new_unit = rng.choice(allowed[node_id])
            if new_unit == old_unit:
                temperature *= self.cooling
                continue
            swap_partner = self._occupant(placement, new_unit, node_id, allowed, old_unit)
            delta = self._move_delta(placement, node_id, old_unit, new_unit, swap_partner)
            accept = delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9))
            if accept:
                placement.node_to_unit[node_id] = new_unit
                if swap_partner is not None:
                    placement.node_to_unit[swap_partner] = old_unit
                current_cost += delta
            temperature *= self.cooling
        return placement

    def _occupant(
        self,
        placement: Placement,
        unit_id: int,
        moving_node: int,
        allowed: dict[int, list[int]],
        old_unit: int,
    ) -> int | None:
        """A node on ``unit_id`` that may legally swap onto ``old_unit``."""
        # ``Placement.nodes_on_unit``, inlined.
        on_unit = [n for n, u in placement.node_to_unit.items() if u == unit_id]
        for node_id in on_unit:
            if node_id != moving_node and old_unit in allowed.get(node_id, []):
                return node_id
        return None

    def _move_delta(
        self,
        placement: Placement,
        node_id: int,
        old_unit: int,
        new_unit: int,
        swap_partner: int | None,
    ) -> int:
        affected = {node_id}
        if swap_partner is not None:
            affected.add(swap_partner)
        before = self._local_cost(placement, affected)
        placement.node_to_unit[node_id] = new_unit
        if swap_partner is not None:
            placement.node_to_unit[swap_partner] = old_unit
        after = self._local_cost(placement, affected)
        placement.node_to_unit[node_id] = old_unit
        if swap_partner is not None:
            placement.node_to_unit[swap_partner] = new_unit
        return after - before

    def _local_cost(self, placement: Placement, nodes: set[int]) -> int:
        graph = placement.graph
        total = 0
        for edge in graph.edges():
            if edge.src not in nodes and edge.dst not in nodes:
                continue
            src_unit = placement.node_to_unit.get(edge.src)
            dst_unit = placement.node_to_unit.get(edge.dst)
            if src_unit is None or dst_unit is None:
                continue
            total += placement.grid.distance(src_unit, dst_unit)
        return total


_GRAPH_BUILDERS = {
    "mt": "build_mt",
    "dmt": "build_dmt",
    "dmt_win": "build_dmt_windowed",
    "stream": "build_stream",
}


def _compiled_graph(workload, variant, params):
    """The post-pass graph ``compile_kernel`` hands to the placer."""
    graph = getattr(workload, _GRAPH_BUILDERS[variant])(workload.params_with_defaults(params))
    options = CompilerOptions(map_to_grid=False, analyze="off")
    return compile_kernel(graph, options=options).graph


def _assert_same_placement(graph, seed):
    grid = PhysicalGrid(CgraGridConfig())
    iterations = CompilerOptions().anneal_iterations
    fast = AnnealingRefiner(iterations=iterations, seed=seed).refine(
        GreedyPlacer(grid).place(graph)
    )
    reference = _ReferenceRefiner(iterations=iterations, seed=seed).refine(
        GreedyPlacer(grid).place(graph)
    )
    assert list(fast.node_to_unit.items()) == list(reference.node_to_unit.items())
    assert fast.wire_length() == reference.wire_length()


_SEEDS = (0xC6A4, 7)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize(
    ("workload", "variant", "params"),
    [
        ("scan", "dmt", {"n": 4}),
        ("convolution", "dmt", None),
        ("matrixMul", "mt", {"dim": 16}),  # oversubscribed: shared units
    ],
)
def test_incremental_annealing_matches_reference(workload, variant, params, seed):
    graph = _compiled_graph(get_workload(workload), variant, params)
    _assert_same_placement(graph, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize(
    ("workload", "variant"),
    registry_kernels(),
    ids=[f"{w.name}-{v}" for w, v in registry_kernels()],
)
def test_incremental_annealing_matches_reference_registry(workload, variant, seed):
    graph = _compiled_graph(workload, variant, DEFAULT_SUITE_PARAMS.get(workload.name))
    _assert_same_placement(graph, seed)
