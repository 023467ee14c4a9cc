"""Static NoC routing of a placed dataflow graph.

Every dataflow edge of a placed graph follows a fixed dimension-ordered
(XY) route configured at compile time (the MT-CGRA interconnect is
statically configured, Sec. 4).  An XY route between two tiles is as long
as their Manhattan distance, so routing yields one hop count per
``(src, dst)`` node pair, the table
:meth:`~repro.graph.index.KernelIndex.routed` stores as ``edge_hops`` and
the engines read for token transfer latency and NoC energy.
"""

from __future__ import annotations

from repro.compiler.mapper.placement import Placement

__all__ = ["route_placement"]


def route_placement(placement: Placement) -> dict[tuple[int, int], int]:
    """The hops of the static XY route of every placed ``(src, dst)`` pair.

    All ports of one pair share a route.  Edges from unplaced sources
    (thread-ID injection) have no route and count zero hops.
    """
    grid = placement.grid
    units = placement.node_to_unit
    hops: dict[tuple[int, int], int] = {}
    for src, dst, _ in placement.index.edges:
        src_unit = units.get(src)
        dst_unit = units.get(dst)
        hops[(src, dst)] = (
            0 if src_unit is None or dst_unit is None else grid.distance(src_unit, dst_unit)
        )
    return hops
