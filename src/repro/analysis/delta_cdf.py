"""ΔTID transmission-distance analysis (paper Fig. 5).

Figure 5 plots the cumulative distribution of the transmission distances
(|ΔTID| in linear thread-ID space) over all communicated values of the
benchmark suite and observes that a 16-entry token buffer covers 87% of
them without cascading.  This module extracts the same distribution from
the dMT-CGRA kernel graphs: every elevator / eLDST node contributes one
sample per dynamic token it transfers (i.e. per consumer thread whose
producer exists), weighted accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.graph.dfg import DataflowGraph
from repro.graph.interthread import producer_map
from repro.graph.opcodes import Opcode

__all__ = ["DeltaSample", "TransmissionCdf", "collect_delta_samples", "build_cdf"]


@dataclass(frozen=True)
class DeltaSample:
    """One communication pattern: a distance and its dynamic token count."""

    kernel: str
    node_label: str
    distance: int
    tokens: int


@dataclass
class TransmissionCdf:
    """Cumulative distribution of transmission distances."""

    samples: list[DeltaSample]

    @property
    def total_tokens(self) -> int:
        return sum(s.tokens for s in self.samples)

    def points(self) -> list[tuple[int, float]]:
        """``(distance, cumulative fraction)`` points sorted by distance."""
        histogram: dict[int, int] = {}
        for sample in self.samples:
            histogram[sample.distance] = histogram.get(sample.distance, 0) + sample.tokens
        total = self.total_tokens
        points: list[tuple[int, float]] = []
        running = 0
        for distance in sorted(histogram):
            running += histogram[distance]
            points.append((distance, running / total if total else 0.0))
        return points

    def fraction_within(self, distance: int) -> float:
        """Fraction of communicated tokens with |ΔTID| <= ``distance``."""
        total = self.total_tokens
        if total == 0:
            return 0.0
        covered = sum(s.tokens for s in self.samples if s.distance <= distance)
        return covered / total

    def max_distance(self) -> int:
        return max((s.distance for s in self.samples), default=0)


def _dynamic_tokens(graph: DataflowGraph, node) -> int:
    """Number of threads whose producer exists for this communication node."""
    return int(np.count_nonzero(producer_map(node, graph.metadata["block_dim"]) >= 0))


def collect_delta_samples(graphs: Iterable[DataflowGraph]) -> list[DeltaSample]:
    """Extract one sample per inter-thread communication node of each graph."""
    samples: list[DeltaSample] = []
    for graph in graphs:
        for node in graph.nodes_with_opcode(Opcode.ELEVATOR):
            distance = abs(int(node.param("cascade_total_delta", node.param("delta"))))
            tokens = _dynamic_tokens(graph, node)
            samples.append(
                DeltaSample(
                    kernel=graph.name,
                    node_label=node.label(),
                    distance=distance,
                    tokens=tokens,
                )
            )
        for node in graph.nodes_with_opcode(Opcode.ELDST):
            distance = abs(int(node.param("delta")))
            tokens = _dynamic_tokens(graph, node)
            samples.append(
                DeltaSample(
                    kernel=graph.name,
                    node_label=node.label(),
                    distance=distance,
                    tokens=tokens,
                )
            )
    return samples


def build_cdf(graphs: Iterable[DataflowGraph] | Sequence[DataflowGraph]) -> TransmissionCdf:
    """Build the Fig. 5 CDF over a set of (uncompiled) dMT kernel graphs."""
    return TransmissionCdf(samples=collect_delta_samples(graphs))
