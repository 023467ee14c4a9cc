"""Host-speed normalisation: a fixed reference loop timed between ops.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts: the same compile, timed back to back, takes from
1x to 2x its fastest time, in phases that last seconds, and the drift
between two runs minutes apart is wider than any regression bound worth
having.  Longer runs do not average it away.  So the workloads take
*checkpoints* between ops, where nothing of the program runs: a
checkpoint times ``reference_loop`` — the benchmark's own fixed code,
never the program's.  Each stretch of time between two checkpoints is
scaled by ``REFERENCE_S`` over the mean reference time of the two, and
an op's normalised latency is its stretches so scaled, summed, leaving
out any checkpoint taken inside the op.  That is the op's latency on a
host running the loop at its reference speed.  A faster or slower
program changes the op and not the loop, so it shows in full; host drift
changes both, so it largely cancels.

The program is interpreted Python walking object graphs (the compiler's
placement, the event engine, the server) and NumPy passes (the batched
engines).  Of the loops tried, pointer-chasing over a graph of a few MiB
of small Python objects tracked the host's drift for both best: it halved
the spread of normalised compile and ``simulate`` times, where a loop over
small dicts and NumPy arrays cut it by a third or less.  Scaling each
stretch by the checkpoints around it, not a whole process by the median
of its checkpoints, also follows the drift within a run: over five
``paper_suite`` runs on a drifting host the quartile spread of
``op_p50_ms`` was 0.27 in host time, 0.05 so normalised and 0.11 with
one factor per process.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_right
from time import perf_counter

#: A typical ``sample()`` on the 2-vCPU VM the benchmark was defined on.
#: It only fixes the scale of the normalised times.
REFERENCE_S = 0.0050
#: Loops timed per checkpoint; the checkpoint keeps their mean.
SAMPLES = 4
#: Objects in the reference graph, and node visits per loop.
NODES = 20_000
VISITS = 8_000


class _Node:
    __slots__ = ("x", "y", "links")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y, self.links = x, y, []


_graph: tuple[dict[int, _Node], list[int]] | None = None


def _build() -> tuple[dict[int, _Node], list[int]]:
    rng = random.Random(0)
    nodes = [_Node(rng.randrange(64), rng.randrange(64)) for _ in range(NODES)]
    for node in nodes:
        node.links = [nodes[rng.randrange(NODES)] for _ in range(3)]
    return dict(enumerate(nodes)), [rng.randrange(NODES) for _ in range(VISITS)]


def reference_loop() -> int:
    """Fixed work: random visits to a graph of small objects, each summing
    its links' Manhattan distances and swapping a coordinate with one of
    them (so every loop does the same work on a changing graph)."""
    global _graph
    if _graph is None:
        _graph = _build()
    table, visits = _graph
    cost = 0
    for key in visits:
        node = table[key]
        for link in node.links:
            cost += abs(node.x - link.x) + abs(node.y - link.y)
        first = node.links[0]
        node.x, first.x = first.x, node.x
    return cost


def sample() -> float:
    """Mean seconds of ``SAMPLES`` reference loops, run back to back
    after one untimed loop that brings the graph back into the caches.

    The mean, not the median: when another tenant shares the core in
    time slices of a few milliseconds, the median keeps the loops that
    ran between slices and misses the slowdown the ops see."""
    reference_loop()
    start = perf_counter()
    for _ in range(SAMPLES):
        reference_loop()
    return (perf_counter() - start) / SAMPLES


class HostClock:
    """Checkpoints along a run, and the host speed between them."""

    def __init__(self) -> None:
        #: (start, end, reference seconds) of every checkpoint, in order.
        self.marks: list[tuple[float, float, float]] = []

    def checkpoint(self) -> None:
        start = perf_counter()
        reference = sample()
        self.marks.append((start, perf_counter(), reference))

    def factor(self, at: float) -> float:
        """Reference ÷ host speed for work at time ``at`` (a perf_counter).

        Uses the two checkpoints around ``at``; work before the first or
        after the last uses the nearest one.
        """
        if not self.marks:
            raise RuntimeError("no host-speed checkpoint was taken")
        index = bisect_right([end for _, end, _ in self.marks], at)
        around = self.marks[max(0, index - 1) : index + 1]
        return REFERENCE_S / statistics.fmean(reference for _, _, reference in around)

    def _stretches(self, start: float, end: float) -> list[tuple[float, float]]:
        """[start, end] without the checkpoints, as (from, to) stretches."""
        stretches, at = [], start
        for mark_start, mark_end, _ in self.marks:
            if mark_end <= at or mark_start >= end:
                continue
            if mark_start > at:
                stretches.append((at, mark_start))
            at = mark_end
        if at < end:
            stretches.append((at, end))
        return stretches

    def host(self, start: float, end: float) -> float:
        """Host seconds in [start, end], leaving out checkpoints."""
        return sum(to - at for at, to in self._stretches(start, end))

    def normalised(self, start: float, end: float) -> float:
        """Reference-speed seconds in [start, end], leaving out checkpoints."""
        return sum((to - at) * self.factor((at + to) / 2) for at, to in self._stretches(start, end))

    def busy_wall(self) -> tuple[float, float]:
        """(host, normalised) seconds from the first to the last checkpoint,
        leaving out the checkpoints."""
        start, end = self.marks[0][0], self.marks[-1][1]
        return self.host(start, end), self.normalised(start, end)
