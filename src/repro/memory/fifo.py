"""The single-server FIFO queue in closed form.

The batched engine's issue ports, L1 banks and scratchpad banks are each
a server that starts job ``k`` at ``t_k = max(r_k, t_{k-1} + service)``
(Lindley's recurrence); :func:`fifo_starts` solves it for all three.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["fifo_starts"]


def fifo_starts(
    ready: np.ndarray, starts: Sequence[int], free: Sequence[float], service: float
) -> np.ndarray:
    """Start cycles of a stream of jobs grouped by server, in place.

    ``ready`` (int64 or float64) holds the jobs' ready cycles, one group
    per server in service order: group ``g`` runs from ``starts[g]`` to
    the next group's start (the last to the end), and its server is first
    free at ``free[g]`` (``-inf``: idle).  ``ready`` is overwritten with
    the start cycles and returned; a server is next free at its last
    start plus ``service``.

    At position ``i`` of a group that begins at ``s``,
    ``t_i = max(r_i, t_{i-1} + service)`` with ``t_{s-1} + service = free``.
    With ``u_i = t_i - service·i`` that is ``u_i = max(r_i - service·i,
    u_{i-1})`` from ``u_{s-1} = free - service·s``, so ``t_i = service·i +
    max(free - service·s, cummax_{s<=j<=i}(r_j - service·j))``: one
    subtraction and one addition over the stream, one running maximum per
    group.  Float64 cycles are exact while ``r_i - service·i`` is (integer
    or dyadic cycles below 2**53), otherwise within its rounding.
    """
    bounds = [*starts, ready.size]
    if service:
        position = np.arange(0, service * ready.size, service, dtype=ready.dtype)
        ready -= position
    for lo, hi, first_free in zip(bounds, bounds[1:], free):
        head = first_free - service * lo
        if lo < hi and head > ready[lo]:
            ready[lo] = head
        np.maximum.accumulate(ready[lo:hi], out=ready[lo:hi])
    if service:
        ready += position
    return ready
