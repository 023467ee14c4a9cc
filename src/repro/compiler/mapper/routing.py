"""Static NoC routing of a placed dataflow graph.

Every dataflow edge of a placed graph follows a fixed dimension-ordered
(XY) route configured at compile time (the MT-CGRA interconnect is
statically configured, Sec. 4).  An XY route between two tiles is as long
as their Manhattan distance, so the result — a :class:`RoutedMapping` —
carries the per-edge hop counts the engines use for token transfer
latency and NoC energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.mapper.placement import Placement

__all__ = ["RoutedMapping", "route_placement"]


@dataclass
class RoutedMapping:
    """A fully placed-and-routed kernel configuration."""

    placement: Placement
    edge_hops: dict[tuple[int, int, int], int] = field(default_factory=dict)
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


def route_placement(placement: Placement) -> RoutedMapping:
    """Count the hops of the static XY route of every placed edge."""
    grid = placement.grid
    mapping = RoutedMapping(placement=placement)
    for src, dst, port in placement.index.edges:
        src_unit = placement.unit_of(src)
        dst_unit = placement.unit_of(dst)
        # Edges from unplaced sources (thread-ID injection) have no route.
        hops = 0 if src_unit is None or dst_unit is None else grid.distance(src_unit, dst_unit)
        mapping.edge_hops[(src, dst, port)] = hops
        mapping.pair_hops.setdefault((src, dst), hops)
    return mapping
