"""Shared semantics of inter-thread communication nodes.

The functional interpreter and both simulation engines must agree on
*which* thread a value travels from/to; :func:`producer_map` is the
single statement of that map, and every engine reads it as a table.

Conventions
-----------
* Thread IDs are linearised CUDA-style: ``tid = x + y*dim_x + z*dim_x*dim_y``.
* An ``ELEVATOR`` node stores the **hardware shift** ``delta``:
  the token produced by thread ``p`` is re-tagged to thread ``p + delta``;
  equivalently, consumer thread ``c`` receives the value produced by
  thread ``c - delta``.  The programmer-facing API of Table 1 instead
  specifies the *source offset* (``fromThreadOrConst<var, -1, 0>`` reads
  from thread ``tid - 1``); the kernel builder converts between the two.
* ``src_offset`` (optional, a coordinate tuple) preserves the multi-
  dimensional offset so that boundary conditions are evaluated per
  dimension, exactly like the coordinate arithmetic in the paper's
  matrix-multiplication example (Fig. 2b / Fig. 3).
* ``window`` bounds the transmission window (Sec. 3.2): the thread block
  is partitioned into consecutive groups of ``window`` linear TIDs and
  communication never crosses a group boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.node import Node
from repro.graph.opcodes import SOURCE_OPCODES, Opcode
from repro.graph.semantics import PURE_OPCODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.index import KernelIndex

__all__ = [
    "linearize",
    "unlinearize",
    "linear_offset",
    "map_key",
    "producer_map",
    "communication_windows",
    "scratch_levels",
    "window_batch_problem",
]


def _normalize_dims(block_dim: Sequence[int]) -> tuple[int, int, int]:
    dims = tuple(int(d) for d in block_dim)
    if not 1 <= len(dims) <= 3:
        raise GraphError("block_dim must have between 1 and 3 dimensions")
    if any(d <= 0 for d in dims):
        raise GraphError("block dimensions must be positive")
    return dims + (1,) * (3 - len(dims))


def linearize(coord: Sequence[int], block_dim: Sequence[int]) -> int:
    """Linearise a (x[, y[, z]]) coordinate into a flat thread ID."""
    dx, dy, _ = _normalize_dims(block_dim)
    c = tuple(int(v) for v in coord) + (0,) * (3 - len(coord))
    return c[0] + c[1] * dx + c[2] * dx * dy


def unlinearize(tid: int, block_dim: Sequence[int]) -> tuple[int, int, int]:
    """Convert a flat thread ID back into a 3-component coordinate."""
    dx, dy, _ = _normalize_dims(block_dim)
    x = tid % dx
    y = (tid // dx) % dy
    z = tid // (dx * dy)
    return (x, y, z)


def linear_offset(offset: Sequence[int] | int, block_dim: Sequence[int]) -> int:
    """Linearise a multi-dimensional thread-ID offset."""
    if isinstance(offset, int):
        return offset
    dx, dy, _ = _normalize_dims(block_dim)
    o = tuple(int(v) for v in offset) + (0,) * (3 - len(tuple(offset)))
    return o[0] + o[1] * dx + o[2] * dx * dy


def map_key(node: Node) -> tuple:
    """The identity of ``node``'s consumer→producer map.

    Two ELEVATOR/ELDST nodes with equal keys connect every pair of
    threads alike, so an engine builds one table per key and every node
    sharing the map shares it; spill and external-buffer parameters
    change latency only.  The opcode is part of the key because an
    eLDST table also marks the forwarding rule's receivers
    (``consumer == producer + |delta|``), an ELEVATOR table does not.
    """
    offset = node.param("src_offset")
    return (
        node.opcode,
        node.param("delta"),
        None if offset is None else tuple(offset),
        node.param("window"),
    )


def producer_map(node: Node, block_dim: Sequence[int]) -> np.ndarray:
    """Producer TID of every launch thread through ``node``, -1 for none.

    Entry ``c`` is the thread whose value consumer thread ``c`` receives:
    ``c - delta``, or the thread ``src_offset`` away per coordinate when
    the node has one.  A producer outside the block (per dimension for a
    coordinate offset) or in another transmission window gives -1: the
    ELEVATOR consumer then takes the fallback constant, the eLDST
    consumer issues its own memory load.  This is the only statement of
    the map; every engine reads it as a table.
    """
    dx, dy, dz = _normalize_dims(block_dim)
    consumers = np.arange(dx * dy * dz, dtype=np.int64)
    window = node.param("window")
    src_offset = node.param("src_offset")
    if src_offset is not None:
        off = tuple(int(v) for v in src_offset) + (0,) * (3 - len(tuple(src_offset)))
        sx = consumers % dx + off[0]
        sy = (consumers // dx) % dy + off[1]
        sz = consumers // (dx * dy) + off[2]
        valid = (
            (sx >= 0) & (sx < dx) & (sy >= 0) & (sy < dy) & (sz >= 0) & (sz < dz)
        )
        src = sx + sy * dx + sz * dx * dy
    else:
        src = consumers - int(node.param("delta"))
        valid = (src >= 0) & (src < consumers.size)
    if window is not None:
        w = int(window)
        valid &= (src // w) == (consumers // w)
    return np.where(valid, src, np.int64(-1))


def communication_windows(index: "KernelIndex") -> tuple[list[int], Optional[str]]:
    """The transmission windows bounding an indexed kernel's inter-thread traffic.

    This is the single statement of the shard legality rule; the
    analyzer's shardability pass (``analyze/passes.py::shard_plan``)
    applies it once per kernel and every multi-core run executes that
    plan:

    * every ELEVATOR/ELDST node must carry a bounded ``window``;
    * a BARRIER contributes its ``window`` if it has one; an un-windowed
      BARRIER degrades to a per-shard barrier, which preserves every
      value only if the graph moves no data through the scratchpad
      (scratch traffic ordered by a whole-block barrier may cross a
      shard boundary).

    Returns ``(windows, None)`` when cuts aligned to the windows are
    legal, or ``([], reason)`` when no cut is.
    """
    windows: list[int] = []
    for node in index.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST):
        window = node.param("window")
        if window is None:
            return [], f"{node.label()} has no bounded transmission window"
        windows.append(int(window))
    has_scratch = bool(
        index.nodes_with_opcode(Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE)
    )
    for node in index.nodes_with_opcode(Opcode.BARRIER):
        window = node.param("window")
        if window is not None:
            windows.append(int(window))
        elif has_scratch:
            return [], (
                f"{node.label()} synchronises scratchpad traffic across "
                "the whole block"
            )
    return windows, None


#: Opcodes whose value is a pure function of the thread's own sources.
_MEMORY_FREE_OPCODES = PURE_OPCODES | set(SOURCE_OPCODES)


def scratch_levels(
    index: "KernelIndex", order: Sequence[Node]
) -> tuple[dict[int, int], dict[int, int]]:
    """Scratch-dependency levels of an indexed kernel (``order`` is topological).

    Returns ``(levels, above)``: a scratch node's level is one more than
    the deepest scratch node among its ancestors, so level 1 holds the
    scratch nodes no other scratch access feeds; ``above`` maps every
    node to the deepest level among its strict ancestors (0 for none).
    """
    above: dict[int, int] = {}
    levels: dict[int, int] = {}
    inputs = index.inputs
    for node in order:
        nid = node.node_id
        above[nid] = max(
            (max(above[src], levels.get(src, 0)) for src, _, _ in inputs[nid]),
            default=0,
        )
        if node.opcode in (Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE):
            levels[nid] = above[nid] + 1
    return levels, above


def _scratch_level_problem(index: "KernelIndex", order: Sequence[Node]) -> Optional[str]:
    """Why an indexed kernel's scratch levels may interleave in time (``None`` =
    every level's accesses arrive before any access of the next level).

    Level ``k`` is barrier-separated from level ``k-1`` when either

    * every level-``k`` node has an ancestor whole-block BARRIER (no
      ``window``, or one spanning the block) that every level-``k-1``
      node feeds: no thread passes that barrier before the last
      level-``k-1`` access; or
    * level ``k-1`` is *barrier-released*: each of its nodes takes a
      whole-block barrier's token as an operand — a barrier that every
      level-``k-2`` node feeds — and its other operands touch no memory.
      The release sends every thread's token on one cycle, so the whole
      level arrives in that burst, before any level-``k`` access (which
      waits for a level-``k-1`` access to complete).
    """
    levels, _ = scratch_levels(index, order)
    depth = max(levels.values(), default=0)
    if depth < 2:
        return None
    # Sets as bit masks: scratch nodes by index, levels by number.
    bit = {nid: 1 << i for i, nid in enumerate(levels)}
    members = [0] * (depth + 1)
    for nid, level in levels.items():
        members[level] |= bit[nid]
    num_threads = int(index.metadata.get("num_threads", 0))

    def whole_block_barrier(node: Node) -> bool:
        window = node.param("window")
        return node.opcode is Opcode.BARRIER and (window is None or window >= num_threads)

    feeds: dict[int, int] = {}  # scratch ancestors (and self)
    closes: dict[int, int] = {}  # levels an ancestor barrier closes
    memory_free: dict[int, bool] = {}  # computed from sources and pure ops
    released: dict[int, int] = {}  # scratch node -> levels its gate closes, plus 0
    barriers: set[int] = set()
    for node in order:
        nid = node.node_id
        srcs = [edge.src for edge in index.inputs[nid]]
        feeds[nid] = closes[nid] = 0
        for src in srcs:
            feeds[nid] |= feeds[src]
            closes[nid] |= closes[src]
        memory_free[nid] = node.opcode in _MEMORY_FREE_OPCODES and all(
            memory_free[src] for src in srcs
        )
        if whole_block_barrier(node):
            barriers.add(nid)
            for level in range(1, depth + 1):
                if members[level] & ~feeds[nid] == 0:
                    closes[nid] |= 1 << level
        if nid in levels:
            gates = [src for src in srcs if src in barriers]
            released[nid] = (
                closes[gates[0]] | 1
                if len(gates) == 1
                and all(memory_free[src] for src in srcs if src not in barriers)
                else 0
            )
            feeds[nid] |= bit[nid]
    by_level: dict[int, list[int]] = {}
    for nid, level in levels.items():
        by_level.setdefault(level, []).append(nid)
    for level in range(2, depth + 1):
        if all(released[nid] >> (level - 2) & 1 for nid in by_level[level - 1]):
            continue  # level - 1 arrives in one release burst
        for nid in sorted(by_level[level]):
            if not closes[nid] >> (level - 1) & 1:
                return (
                    f"{index.by_id[nid].label()} (scratch level {level}) may overlap "
                    f"scratch level {level - 1} in time: no whole-block barrier "
                    "separates them"
                )
    return None


def window_batch_problem(index: "KernelIndex") -> Optional[str]:
    """Why an indexed kernel cannot run on the batched engine (``None`` = it can).

    This is the single statement of batchability, shared by the static
    analyzer (``RA044``/``RA045``) and the engine's own construction
    check so the verdict IS the dispatch decision.  A graph batches when
    its inter-thread traffic is *feed-forward* (a graph without
    inter-thread nodes trivially is) and its scratchpad traffic replays
    level by level:

    * no static cycle runs through an ELEVATOR's temporal edge
      (a recurrence such as the Fig. 6 prefix sum must be resolved
      token by token by the event engine);
    * scratch levels are barrier-separated
      (:func:`_scratch_level_problem`): the engine serves each scratch
      level's accesses as one merged stream in the event engine's
      processing order, which is exact only when no two levels' accesses
      interleave in time.

    A whole-block BARRIER is one group over the whole thread subset, and
    ELEVATOR/ELDST chains need no bounded ``window`` of their own: their
    consumer→producer maps are static (:func:`producer_map`), so
    chains bounded by coordinate geometry (e.g. the row/column forwarding
    of the paper's matrixMul) batch just as well — only *recurrences*
    are out of reach.
    """
    if index.full_order is None:
        return (
            "an inter-thread recurrence cycle requires token-by-token "
            "resolution"
        )
    return _scratch_level_problem(index, index.full_order)
