"""Static NoC routing of a placed dataflow graph.

Every dataflow edge of a placed graph is assigned its XY route at compile
time (the MT-CGRA interconnect is statically configured, Sec. 4).  The
result — a :class:`RoutedMapping` — carries the per-edge hop counts the
cycle-level simulator uses for token transfer latency and the link-load
histogram used to spot hot links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.grid import PhysicalGrid
from repro.arch.noc import Link, Noc
from repro.compiler.mapper.placement import Placement
from repro.config.system import NocConfig
from repro.errors import RoutingError

__all__ = ["RoutedMapping", "route_placement"]


@dataclass
class RoutedMapping:
    """A fully placed-and-routed kernel configuration."""

    placement: Placement
    edge_hops: dict[tuple[int, int, int], int] = field(default_factory=dict)
    edge_routes: dict[tuple[int, int, int], tuple[Link, ...]] = field(default_factory=dict)
    link_load: dict[Link, int] = field(default_factory=dict)
    #: Hop count of the first routed edge per ``(src, dst)`` node pair.
    pair_hops: dict[tuple[int, int], int] = field(default_factory=dict)

    # ------------------------------------------------------------------ queries
    def hops_between_nodes(self, src: int, dst: int) -> int:
        hops = self.pair_hops.get((src, dst))
        if hops is not None:
            return hops
        placement = self.placement
        src_unit = placement.unit_of(src)
        dst_unit = placement.unit_of(dst)
        if src_unit is None or dst_unit is None:
            return 0
        return placement.grid.distance(src_unit, dst_unit)

    @property
    def total_hops(self) -> int:
        return sum(self.edge_hops.values())

    @property
    def mean_hops(self) -> float:
        return self.total_hops / len(self.edge_hops) if self.edge_hops else 0.0

    def unit_of(self, node_id: int) -> int | None:
        return self.placement.unit_of(node_id)

    def summary(self) -> str:
        shared = self.placement.shared_units()
        return (
            f"RoutedMapping(nodes={len(self.placement.node_to_unit)}, "
            f"edges={len(self.edge_hops)}, total_hops={self.total_hops}, "
            f"mean_hops={self.mean_hops:.2f}, shared_units={len(shared)})"
        )


def route_placement(placement: Placement, noc_config: NocConfig) -> RoutedMapping:
    """Compute the static XY route of every placed edge."""
    grid: PhysicalGrid = placement.grid
    noc = Noc(grid, noc_config)
    mapping = RoutedMapping(placement=placement)
    for edge in placement.graph.edges():
        src_unit = placement.unit_of(edge.src)
        dst_unit = placement.unit_of(edge.dst)
        key = (edge.src, edge.dst, edge.dst_port)
        if src_unit is None or dst_unit is None:
            # Edges from unplaced sources (thread-ID injection) have no route.
            mapping.edge_hops[key] = 0
            mapping.edge_routes[key] = ()
            mapping.pair_hops.setdefault((edge.src, edge.dst), 0)
            continue
        try:
            route = noc.route(src_unit, dst_unit)
        except RoutingError as exc:  # pragma: no cover - defensive
            raise RoutingError(
                f"failed to route edge {edge.src}->{edge.dst}: {exc}"
            ) from exc
        mapping.edge_hops[key] = len(route)
        mapping.edge_routes[key] = tuple(route)
        mapping.pair_hops.setdefault((edge.src, edge.dst), len(route))
        for link in route:
            mapping.link_load[link] = mapping.link_load.get(link, 0) + 1
    return mapping
