"""Placement and routing of dataflow graphs onto the CGRA grid."""

from repro.compiler.mapper.placement import (
    AnnealingRefiner,
    GreedyPlacer,
    Placement,
    place_graph,
)
from repro.compiler.mapper.routing import route_placement

__all__ = [
    "AnnealingRefiner",
    "GreedyPlacer",
    "Placement",
    "place_graph",
    "route_placement",
]
