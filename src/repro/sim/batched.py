"""Batched NumPy execution engine for the (d)MT-CGRA core.

The event-driven :class:`~repro.sim.cycle.CycleSimulator` schedules one
heap event per token per edge, which is exact but costs minutes per
configuration on the Figure 11/12 problem sizes.  The dMT-CGRA execution
model is thread-parallel — the same static graph is traversed by
thousands of tagged threads — and inter-thread communication is a
*static* consumer→producer map inside a transmission window (Sec. 3.2).
So whenever that traffic is feed-forward and the scratchpad traffic
replays level by level
(:func:`repro.graph.interthread.window_batch_problem` returns ``None``;
a graph without ELEVATOR/ELDST/BARRIER nodes is the case with no maps)
each static node can be evaluated once over a NumPy vector of all the
core's thread IDs, the way the ESL-CGRA simulator steps whole-array
state per cycle instead of per token.  The whole thread subset runs as
one wave, so a forwarding chain or barrier group is never split.

Two sweeps: values, then timing
-------------------------------
Every value a wave moves — an elevator retag, an eLDST forward, a
barrier release — is a function of thread IDs and memory contents, never
of cycles; only the timing depends on the order in which accesses reach
the memory system.  So a wave runs as two sweeps over the graph:

* the **value pass** (``BatchedSimulator._value_pass``) moves every
  node's data in wave order: sources, pure ops, the elevator gather,
  barrier pass-through, outputs, and memory nodes, each reading or
  writing its array at its wave position (a store earlier in the graph
  lands before a later load reads).  It makes no memory-model call and
  returns each memory node's *stream*: the accessing-row mask, the byte
  addresses and, for an eLDST, the forwarding ranking;
* the **timing sweep** (``BatchedSimulator._time``) issues every node
  through its ports and walks only those streams: the event-ordered load
  prepass first, then every other node in wave order, with the
  forwarding prefix maxima, barrier maxima and scratch bank queues.

Per-thread completion times are computed analytically:

* a thread injected as the ``p``-th thread of this core becomes live at
  cycle ``p // replicas`` (the streamer injects ``replicas`` threads per
  cycle);
* a node's operands are ready at the maximum over its input edges of the
  producer's completion time plus the routed edge latency (injection
  latency + one cycle per mapped NoC hop, exactly the event engine's
  edge model);
* issue-port contention is resolved with a deterministic multi-server
  queue: the node's ``replicas`` issue ports each retire one operation
  per cycle, and firings are serviced in ready order, round-robin over
  the ports; :func:`~repro.memory.fifo.fifo_starts` times every port;
* a node fed only by thread-index and constant sources, directly or
  through pure nodes, is ready at its thread's injection plus a
  per-kernel constant, timed once per compiled kernel
  (:func:`_static_walk`).  Its ready cycles rise by exactly one per
  firing on each port, so it issues on its ready cycle with no queue.

Memory model (:mod:`repro.sim.analytic_cache`)
----------------------------------------------
Global accesses run through a full set-associative LRU model of both
cache levels — compulsory, capacity *and* conflict misses, dirty
writebacks, MSHR merges and DRAM bank queueing.  The L2 and the DRAM
are the hierarchy's own :class:`~repro.memory.cache.SetAssociativeCache`
and DRAM device (a :class:`~repro.memory.shared_dram.SharedDramPort` on
a sharded run), the event engine's models, and the L1 classifies on the
same :mod:`repro.memory.tagcore` tag/set/victim core.  Because LRU
classification depends on the order in which the line-address stream
reaches the cache, each wave's loads are replayed in the *event
engine's* processing order: the order a token arrival fires a load is
a thread-independent property of the graph (the arrival-cycle chain
through its pure index computation, tie-broken by the heap's push
sequence), so the engine precomputes one order key per load node,
ranks the load nodes by it once per compiled kernel, and orders the
whole wave's load stream by (first key component, node rank, thread
position) before running it through the tag model.  That order is
counted, not sorted (``BatchedSimulator._replay_order``), and each load's
rows are written straight to their places in the replayed stream.  Stores
are replayed after the loads of their wave, each at its node's
topological position — exact whenever the store phase drains after the
load phase (it does on the streaming workloads at the fidelity-gate
sizes) and a close approximation when the phases overlap.
Store misses follow write-allocate read-for-ownership: an L1
``write_miss`` whose fill *reads* L2, exactly the counter mapping the
event engine's hierarchy records.  Graphs whose load indices depend on
other loads (RA042) fall back to per-node replay: every LOAD, and every
eLDST's loading heads, walks at its node's position like a store
(classification stays capacity/conflict-aware; only the cross-engine
ordering guarantee is lost).  A per-node walk replays its rows in the
:class:`_FireOrder` processing order when the wave tracks one, in stable
issue order otherwise.  Every L1 walk — the prepass's merged load
stream and each per-node walk — goes through ``BatchedSimulator._walk``,
one host ``tag walk`` span and one count-weighted ``mem`` event.

The L1 walk is vectorised (``sim/analytic_cache.py``) and works one
same-line run at a time: per-set LRU classification of each run via
:class:`~repro.memory.tagcore.LruTagArray`, closed-form per-bank queue
timing and MSHR-merge timing from the MSHR entry that serves each run.
Only the L2-bound residue (missed runs, writebacks, write-throughs)
walks the L2 one access at a time.  Replayed through
the event engine's :class:`~repro.memory.hierarchy.MemoryHierarchy`
one access at a time, the same stream completes on the same cycles
and leaves the same counters.

Scratchpad accesses replay the same way
(``BatchedSimulator._replay_scratch_level``).  The event engine calls ``Scratchpad.access``
when a scratch node's last operand token *arrives* — the issue-port
queue pushes issue past arrival, so that is not issue order — and its
heap breaks same-cycle ties by push sequence.  :class:`_FireOrder`
tracks that order for every firing of a graph with barriers or scratch
nodes: through pure nodes, injections and whole-block barrier releases,
which push the released threads in barrier-arrival order.  Scratch
nodes are grouped by scratch-dependency level; barriers keep the
levels' arrival ranges apart (the static condition of
:func:`~repro.graph.interthread.window_batch_problem`), so each level is
one merged stream of :meth:`~repro.memory.scratchpad.Scratchpad.access_batch`
(banks timed by :func:`~repro.memory.fifo.fifo_starts`), with bank
state carried from level to level — the event engine's completions and
``scratchpad_bank_conflicts``, access for access.

The counters land in the hierarchy's stats objects, so the energy
pipeline and ``SimulationResult.counters()`` see the batched model
exactly where the event engine's counters would appear.  Residual
approximations (cache bank serialisation, MSHR entry limits, replay
order under overlapped load/store phases) affect timing only and are
measured by ``benchmarks/bench_batched_fidelity.py``: L1/L2 miss counts
are exactly equal to the event engine's on the streaming workloads even
under a thrashing 2-way 1 KiB L1, and cycle error stays within the
fidelity gate's 10% bar on the capacity/associativity sweeps.

Inter-thread communication
--------------------------
Each inter-thread node's consumer→producer map is a pure function of
linear thread IDs (:func:`~repro.graph.interthread.producer_map`),
so token resolution is a gather over per-thread vectors rather than an
event exchange.  Nodes with equal map parameters share one table per
simulator (:func:`~repro.graph.interthread.map_key`):

* **ELEVATOR** — consumers with a valid source gather the producer's
  value/issue directly (``value[src]``, ``issue[src] + elevator
  latency``); consumers without one receive the fallback constant at
  their injection cycle, exactly the event engine's ``_inject_thread``
  path.
* **ELDST** — the predicate (plus invalid-source threads) selects the
  *loading heads*; only their indices touch the memory system.  The
  forwarding chain ``head → head+Δ → …`` is a static pointer structure,
  so pointer doubling finds every row's head (whose value the value
  pass gathers) and the timing sweep evaluates the event engine's exact
  recurrence ``complete[t] = max(issue[t], complete[src]) + L`` as a
  prefix maximum in ``ceil(log2 depth)`` rounds.  The ranking depends
  only on the map and the predicate, so it runs once per (map,
  predicate producer) per simulator; each node runs only its own
  prefix-maximum rounds and value gather.
* **BARRIER** — windows partition the thread vector into groups (a
  barrier without a ``window`` is one group over the whole subset); the
  release cycle is a segmented maximum of the group's arrival cycles
  plus the control latency.

On a multi-core run each core executes its shard of the analyzer's plan
(:func:`~repro.sim.multicore.core_threads`, the same shards the event
engine runs), a union of whole transmission windows.  The engine reports itself
under the analyzer's verdict: ``"window-batched"`` (``RA044``) or
``"batched"`` (``RA040``).

Outputs and memory contents are bit-identical to the event engine and
all operation counters (``alu_ops``, ``fpu_ops``, ``global_loads``,
``global_stores``, token/NoC counters, ``elevator_retags``,
``eldst_forwards``, ``barrier_arrivals``, LVC/spill counters, ...) are
equal by construction; the cycle count, ``barrier_wait_cycles`` and the
memory-hierarchy counters are analytic — exact on order-stable traces,
estimates otherwise.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np

from repro.analyze.manager import analyze_kernel
from repro.compiler.pipeline import CompiledKernel
from repro.config.system import SystemConfig
from repro.errors import DeadlockError, MemoryModelError, SimulationError
from repro.graph.dfg import DataflowGraph
from repro.graph.index import KernelIndex
from repro.graph.interthread import map_key, producer_map, scratch_levels
from repro.graph.node import Edge, Node
from repro.graph.opcodes import EFFECT_OPCODES, MEMORY_OPCODES, SOURCE_OPCODES, DType, Opcode
from repro.graph.semantics import PURE_OPCODES, coerce
from repro.kernel.geometry import ThreadGeometry
from repro.memory.fifo import fifo_starts
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.obs.trace import MEM_LANE, active_tracer
from repro.sim.analytic_cache import AnalyticMemoryModel
from repro.sim.cycle import _OP_COUNTERS, LVC_ACCESS_LATENCY, trace_lanes
from repro.sim.launch import KernelLaunch
from repro.sim.multicore import core_threads
from repro.sim.result import MAX_CYCLES, SimulationResult
from repro.sim.stats import ExecutionStats

__all__ = ["BatchedSimulator"]

_NP_DTYPE = {DType.F32: np.float64, DType.I32: np.int64, DType.BOOL: np.bool_}
_U32_MASK = 0xFFFFFFFF


class _StaticTables(NamedTuple):
    """Launch-independent analysis of one compiled kernel, cached on it
    (:func:`_static_tables`); its adjacency and edge timing are the
    kernel's :class:`~repro.graph.index.KernelIndex`."""

    #: The index's topological order over every edge.
    order: tuple
    sink_nodes: list
    order_pos: dict
    #: The analyzer's prepass nodes (every load and its pure ancestors),
    #: or ``None`` when some load index depends on memory (RA042).
    prepass_nodes: "frozenset[int] | None"
    ordered_loads: bool
    load_keys: dict
    load_rank: dict
    wave_order: list
    scratch_level_ends: frozenset
    track_order: bool
    injector_base: dict
    #: :func:`_static_walk`'s tables of the thread-independent sub-DAG:
    #: per node whose operands all come from static nodes, its ready
    #: cycle over its thread's injection and its deciding input edge;
    #: per static node (sources and pure nodes fed only by static
    #: nodes), its completion cycle over injection.
    ready_offset: dict
    deciding: dict
    complete_offset: dict
    #: The analyzer's verdict, ``"batched"`` or ``"window-batched"``.
    engine: str


class _Stream(NamedTuple):
    """One memory node's accesses, as the value pass leaves them.

    ``rows`` masks the rows that touch memory (``None``: every row; an
    eLDST's loading heads otherwise), ``addresses`` holds every row's
    byte address, and ``ranking`` is an eLDST's forwarding forest.
    """

    rows: "np.ndarray | None"
    addresses: np.ndarray
    ranking: "_ForwardRanking | None"


class _InterthreadTable(NamedTuple):
    """Static consumer→producer structure of one communication map.

    Every inter-thread node whose
    :func:`~repro.graph.interthread.map_key` is equal shares one
    table per simulator.  ``src_pos`` maps each row (position in the
    core's thread vector) to the row of its producer, or ``-1`` when the
    thread has no valid source; ``receives`` marks rows the event engine
    actually pushes a forwarded value to (eLDST: ``consumer == source +
    |delta|``, the Fig. 9 loop-back condition), and ``forwards`` counts
    them.
    """

    src_pos: np.ndarray
    receives: np.ndarray
    forwards: int


class _ForwardRanking(NamedTuple):
    """List ranking of one eLDST forwarding forest (:func:`_rank_forest`).

    ``head`` is each row's head row (its value is a gather from it),
    ``pos`` the row's distance to that head, ``jumps`` the pointer of
    every doubling round and ``depth`` the deepest chain.
    """

    head: np.ndarray
    pos: np.ndarray
    jumps: tuple
    depth: int


def _coerce_vec(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Vector form of :func:`repro.graph.semantics.coerce`."""
    if dtype is DType.F32:
        return values.astype(np.float64, copy=False)
    if dtype is DType.BOOL:
        return values.astype(np.bool_, copy=False)
    if values.dtype.kind == "f":
        # int(value) truncates toward zero, as does astype from float.
        return np.trunc(values).astype(np.int64)
    return values.astype(np.int64, copy=False)


def _as_u32(values: np.ndarray) -> np.ndarray:
    return values.astype(np.int64, copy=False) & _U32_MASK


def _eval_pure_vec(node: Node, operands: list[np.ndarray]) -> np.ndarray:
    """Vectorised twin of :func:`repro.graph.semantics.evaluate_pure`.

    Every branch mirrors the scalar semantics bit for bit (including the
    Python-style NaN/zero corner cases), so both engines produce the same
    IEEE doubles; a NaN result is ``math.nan``'s bit pattern, as there.
    """
    out = _pure_vec(node, operands)
    if out.dtype.kind == "f":
        nan = np.isnan(out)
        if nan.any():
            out = np.where(nan, math.nan, out)
    return out


def _pure_vec(node: Node, operands: list[np.ndarray]) -> np.ndarray:
    """:func:`_eval_pure_vec` before its NaN results are made canonical."""
    op = node.opcode
    dt = node.dtype
    a = operands[0] if operands else None
    b = operands[1] if len(operands) > 1 else None
    c = operands[2] if len(operands) > 2 else None

    if op is Opcode.ADD:
        return _coerce_vec(a + b, dt)
    if op is Opcode.SUB:
        return _coerce_vec(a - b, dt)
    if op is Opcode.MUL:
        return _coerce_vec(a * b, dt)
    if op is Opcode.DIV:
        if dt.is_float:
            af = a.astype(np.float64, copy=False)
            bf = b.astype(np.float64, copy=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = af / bf
            zero = bf == 0
            if np.any(zero):
                # Scalar semantics ignore the sign of a zero divisor.
                out = np.where(
                    zero,
                    np.where(af > 0, math.inf, np.where(af < 0, -math.inf, math.nan)),
                    out,
                )
            return out
        ai = a.astype(np.int64, copy=False)
        bi = b.astype(np.int64, copy=False)
        if np.any(bi == 0):
            raise SimulationError("integer division by zero in kernel graph")
        q = np.abs(ai) // np.abs(bi)
        return np.where((ai >= 0) == (bi >= 0), q, -q)
    if op is Opcode.MOD:
        if dt.is_float:
            af = a.astype(np.float64, copy=False)
            bf = b.astype(np.float64, copy=False)
            with np.errstate(invalid="ignore"):
                out = np.fmod(af, bf)
            # The scalar semantics' NaN (not the FPU's sign-set default NaN).
            return np.where((bf == 0) | np.isinf(af), math.nan, out)
        ai = a.astype(np.int64, copy=False)
        bi = b.astype(np.int64, copy=False)
        if np.any(bi == 0):
            raise SimulationError("integer modulo by zero in kernel graph")
        q = np.abs(ai) // np.abs(bi)
        q = np.where((ai >= 0) == (bi >= 0), q, -q)
        return ai - q * bi
    if op is Opcode.MIN:
        # Python's min(a, b) returns b only when b < a (NaN-order included).
        return _coerce_vec(np.where(b < a, b, a), dt)
    if op is Opcode.MAX:
        return _coerce_vec(np.where(b > a, b, a), dt)
    if op is Opcode.ABS:
        return _coerce_vec(np.abs(a), dt)
    if op is Opcode.NEG:
        return _coerce_vec(-a, dt)
    if op is Opcode.FMA:
        return _coerce_vec(a * b + c, dt)

    if op is Opcode.SQRT:
        af = a.astype(np.float64, copy=False)
        with np.errstate(invalid="ignore"):
            # sqrt(-0.0) is -0.0, as in the scalar semantics.
            return np.where(af >= 0, np.sqrt(np.where(af >= 0, af, 0.0)), math.nan)
    if op is Opcode.RSQRT:
        af = a.astype(np.float64, copy=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(af > 0, 1.0 / np.sqrt(np.abs(af)), math.inf)
    if op is Opcode.EXP:
        # math.exp/math.log are kept for bitwise parity with the scalar
        # interpreter; SPECIAL ops are rare enough that the loop is cheap.
        return np.array([math.exp(float(v)) for v in a], dtype=np.float64)
    if op is Opcode.LOG:
        return np.array(
            [math.log(float(v)) if v > 0 else -math.inf for v in a], dtype=np.float64
        )
    if op is Opcode.RCP:
        af = a.astype(np.float64, copy=False)
        with np.errstate(divide="ignore"):
            return np.where(af != 0, 1.0 / af, math.inf)

    if op is Opcode.AND:
        return _coerce_vec(_as_u32(a) & _as_u32(b), dt)
    if op is Opcode.OR:
        return _coerce_vec(_as_u32(a) | _as_u32(b), dt)
    if op is Opcode.XOR:
        return _coerce_vec(_as_u32(a) ^ _as_u32(b), dt)
    if op is Opcode.NOT:
        return _coerce_vec((~_as_u32(a)) & _U32_MASK, dt)
    if op is Opcode.SHL:
        shift = b.astype(np.int64, copy=False) & 31
        return _coerce_vec((_as_u32(a) << shift) & _U32_MASK, dt)
    if op is Opcode.SHR:
        shift = b.astype(np.int64, copy=False) & 31
        return _coerce_vec(_as_u32(a) >> shift, dt)

    if op is Opcode.LT:
        return a < b
    if op is Opcode.LE:
        return a <= b
    if op is Opcode.GT:
        return a > b
    if op is Opcode.GE:
        return a >= b
    if op is Opcode.EQ:
        return a == b
    if op is Opcode.NE:
        return a != b
    if op is Opcode.LAND:
        return a.astype(np.bool_) & b.astype(np.bool_)
    if op is Opcode.LOR:
        return a.astype(np.bool_) | b.astype(np.bool_)
    if op is Opcode.LNOT:
        return ~a.astype(np.bool_)

    if op is Opcode.SELECT:
        return _coerce_vec(np.where(a.astype(np.bool_), b, c), dt)
    if op is Opcode.SPLIT:
        return a
    if op is Opcode.JOIN:
        return a

    raise SimulationError(f"batched engine cannot evaluate {op.value}")


def _load_ranks(
    keys: dict[int, tuple[np.ndarray, np.ndarray]], order_pos: dict[int, int]
) -> dict[int, int]:
    """Thread-independent replay rank of every load node.

    Two accesses whose first key components (``first + 2*inject``) are
    equal compare by an order that does not depend on their threads:
    every moment component shifts by the same ``2*inject``, and a token
    moment (``2*cycle``, even) never ties an injection moment (odd), so
    the first differing component of two such keys is either two moments
    or two push indices — never a moment against a push index or the
    padding.  Comparing the keys with moments taken relative to the first
    component, tie-broken by node position, therefore ranks the load
    nodes once per kernel.  The parity argument needs integer-valued
    components.
    """
    if not keys:
        return {}
    nids = list(keys)
    depth = max(components.size for components, _ in keys.values())
    columns = np.full((depth, len(nids)), -1.0)
    for col, nid in enumerate(nids):
        components, moments = keys[nid]
        assert bool((components == np.floor(components)).all()), (
            f"node {nid}: event-order key components must be integer-valued"
        )
        columns[: components.size, col] = np.where(
            moments, components - components[0], components
        )
    position = np.array([order_pos[nid] for nid in nids], dtype=np.int64)
    ranked = np.lexsort((position, *columns[::-1]))
    return {nids[i]: rank for rank, i in enumerate(ranked.tolist())}


def _rank_forest(src_pos: np.ndarray, heads: np.ndarray) -> "_ForwardRanking | None":
    """Rank an eLDST forwarding forest by pointer doubling.

    ``src_pos`` points every non-head row at the row it receives from;
    the rows in ``heads`` load from memory and root the trees.  Returns
    each row's head and distance to it (list ranking in ``ceil(log2
    depth)`` rounds) with the jump list :func:`_resolve_forest` reuses,
    or ``None`` when some chain never reaches a head.  The result
    depends only on the map and the heads, so every node with the same
    map and predicate shares it.
    """
    n = heads.size
    jump = np.where(heads, np.arange(n, dtype=np.int64), src_pos)
    pos = (~heads).astype(np.int64)
    jumps = [jump]
    for _ in range(n.bit_length() + 1):
        if bool(heads[jump].all()):
            break
        pos += pos[jump]
        jump = jump[jump]
        jumps.append(jump)
    else:
        return None
    return _ForwardRanking(jump, pos, tuple(jumps), int(pos.max(initial=0)))


def _resolve_forest(
    ranking: _ForwardRanking,
    heads: np.ndarray,
    head_complete: np.ndarray,
    issue: np.ndarray,
    latency: float,
) -> np.ndarray:
    """Each row's completion cycle over a ranked forwarding forest.

    Heads complete at ``head_complete + L``.  Unrolling the event
    engine's recurrence ``complete[t] = max(issue[t], complete[src]) +
    L`` down a chain ``head = c_0, …, c_p = t`` gives ``complete[t] =
    p·L + max_k y_k`` with ``y_head = load + L`` and ``y_k = issue_k + L
    - pos_k·L`` — exact, because every cycle is an integer-valued
    float64.  The prefix maximum runs over the ranking's stored jumps,
    ``ceil(log2 depth)`` rounds instead of one per chain level.
    """
    offset = ranking.pos * latency
    y = np.where(heads, head_complete, issue) + latency - offset
    # Before the round with the 2^k-step jump, y[t] covers t's 2^k
    # nearest chain rows; heads jump to themselves, so the max saturates.
    for step in ranking.jumps:
        y = np.maximum(y, y[step])
    return offset + y


class _FireOrder:
    """The event engine's processing order of every firing in one wave.

    The event engine pops same-cycle events in push-sequence order, and
    an event is pushed while its *pusher* is processed, so an event's
    place in the processing order is the key ``(cycle, kind, pusher's
    key, push index)``.  Tokens always land at least one cycle after
    their pusher, so comparing two keys recurses only while the cycles
    tie.  This table records, per node row and thread position, the
    firing's processing cycle, the pusher event ``(row, position)`` and
    push index of the token that completed its operands, and its rank
    among the node's own firings; the injection events form one extra
    row (event kind 2, ranked by position).  Barrier successors see
    every released token pushed by the group's last arrival, in
    barrier-arrival order; scratch levels replay in this order, and
    issue ports serve firings in it.  (eLDST tokens count as sent by the
    consumer's own firing, also when a forward event delivers them.)
    """

    def __init__(self, nodes: list, n: int, inject: np.ndarray) -> None:
        self.row = {node.node_id: i for i, node in enumerate(nodes)}
        self.inj = len(nodes)
        rows = len(nodes) + 1
        self.n = n
        self.fire = np.zeros((rows, n), dtype=np.int64)
        self.rank = np.zeros((rows, n), dtype=np.int64)
        self.dec_row = np.zeros((rows, n), dtype=np.int64)
        self.dec_pos = np.zeros((rows, n), dtype=np.int64)
        self.dec_idx = np.zeros((rows, n), dtype=np.int64)
        self.kind = np.zeros(rows, dtype=np.int64)
        self.kind[self.inj] = 2
        position = np.arange(n, dtype=np.int64)
        self.fire[self.inj] = inject.astype(np.int64)
        self.rank[self.inj] = position
        self.position = position
        self.zeros = np.zeros(n, dtype=np.int64)
        #: ``row_ids[r]`` is a thread-length vector of row index ``r``.
        self.row_ids = np.repeat(np.arange(rows, dtype=np.int64)[:, None], n, axis=1)
        #: Per producer: the pusher event and base push index of its tokens.
        self.emit: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def events_rank(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Dense processing-order ranks of the events ``(rows[i], pos[i])``."""
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        if bool((rows == rows[0]).all()):
            return self.rank[rows[0], pos]
        primary = self.fire[rows, pos] * 4 + self.kind[rows]
        order = np.lexsort((rows, primary))
        p_sorted = primary[order]
        r_sorted = rows[order]
        new_group = np.r_[True, p_sorted[1:] != p_sorted[:-1]]
        group = np.cumsum(new_group) - 1
        new_row = new_group | np.r_[True, r_sorted[1:] != r_sorted[:-1]]
        mixed_group = np.bincount(group, weights=new_row) > 1
        secondary = self.rank[rows, pos]
        tertiary = np.zeros(rows.size, dtype=np.int64)
        mixed = np.flatnonzero(mixed_group[group])
        if mixed.size:
            # Same-cycle events of different nodes: compare their pushers.
            rows_m, pos_m = rows[order[mixed]], pos[order[mixed]]
            sel = order[mixed]
            secondary[sel] = self.events_rank(
                self.dec_row[rows_m, pos_m], self.dec_pos[rows_m, pos_m]
            )
            tertiary[sel] = self.dec_idx[rows_m, pos_m]
        final = np.lexsort((tertiary, secondary, primary))
        keys = np.stack((primary[final], secondary[final], tertiary[final]))
        step = np.r_[False, (keys[:, 1:] != keys[:, :-1]).any(axis=0)]
        dense = np.empty(rows.size, dtype=np.int64)
        dense[final] = np.cumsum(step)
        return dense

    def fire_node(
        self, nid: int, ready: np.ndarray, arrivals: "list[tuple[int, int, np.ndarray]]"
    ) -> np.ndarray:
        """Record node ``nid``'s firings; returns them in processing order.

        ``arrivals`` lists ``(producer id, push offset, arrival cycle)`` per
        input edge; the firing's deciding token is its latest-processed
        operand token.
        """
        row = self.row[nid]
        ready_i = ready.astype(np.int64)
        dec_row, dec_pos, dec_idx = self.dec_row[row], self.dec_pos[row], self.dec_idx[row]
        src, offset, arrival = arrivals[0]
        erow, epos, ebase = self.emit[src]
        dec_row[:] = erow
        dec_pos[:] = epos
        np.add(ebase, offset, out=dec_idx)
        if len(arrivals) > 1:
            chosen = arrival.astype(np.int64) == ready_i
            for src, offset, arrival in arrivals[1:]:
                hit = arrival.astype(np.int64) == ready_i
                erow, epos, ebase = self.emit[src]
                fresh = hit & ~chosen
                dec_row[fresh] = erow[fresh]
                dec_pos[fresh] = epos[fresh]
                dec_idx[fresh] = ebase[fresh] + offset
                again = hit & chosen
                if bool(again.any()):
                    self._settle_tie(np.flatnonzero(again), src, offset, row)
                chosen |= hit
        self.fire[row] = ready_i
        pusher = self.events_rank(dec_row, dec_pos)
        span = int(dec_idx.max()) + 1
        if int(ready_i.max()) * self.n * span < 1 << 62:
            key = (ready_i * self.n + pusher) * span + dec_idx
            if bool((key[1:] > key[:-1]).all()):
                order = self.position
            else:
                order = np.argsort(key)
        else:  # pragma: no cover - cycle counts far past MAX_CYCLES
            order = np.lexsort((dec_idx, pusher, ready_i))
        self.rank[row, order] = self.position
        return order

    def fire_static(self, nid: int, ready: np.ndarray, src: int, offset: int) -> None:
        """Record the firings of a node whose operands are all static
        (:func:`_static_walk`), by broadcast.

        Every firing is ready at its injection plus one offset, and one
        input edge, from ``src`` at push offset ``offset``, decides it on
        every thread.  Its pushers are static too, so each ranks by
        thread position; the firings' processing order is therefore
        thread position, the order :meth:`fire_node` would sort them
        into.
        """
        row = self.row[nid]
        erow, epos, ebase = self.emit[src]
        self.fire[row] = ready
        self.rank[row] = self.position
        self.dec_row[row] = erow
        self.dec_pos[row] = epos
        np.add(ebase, offset, out=self.dec_idx[row])

    def _settle_tie(self, t: np.ndarray, src: int, offset: int, row: int) -> None:
        """Threads ``t`` whose operand from ``src`` arrives on the same
        cycle as the one chosen so far: the token whose (pusher, push
        index) comes later completes the firing."""
        erow, epos, ebase = self.emit[src]
        dec_row, dec_pos, dec_idx = self.dec_row[row], self.dec_pos[row], self.dec_idx[row]
        ranks = self.events_rank(
            np.concatenate((dec_row[t], erow[t])), np.concatenate((dec_pos[t], epos[t]))
        )
        cur, new = ranks[: t.size], ranks[t.size :]
        new_idx = ebase[t] + offset
        later = t[(new > cur) | ((new == cur) & (new_idx > dec_idx[t]))]
        dec_row[later] = erow[later]
        dec_pos[later] = epos[later]
        dec_idx[later] = ebase[later] + offset

    def emit_inline(self, nid: int) -> None:
        """A node that sends its own tokens while it fires."""
        self.emit[nid] = (self.row_ids[self.row[nid]], self.position, self.zeros)

    def emit_injected(self, nid: int, base: int) -> None:
        """Tokens pushed by the thread's injection event (sources, and the
        elevator fallback constant)."""
        self.emit[nid] = (
            self.row_ids[self.inj], self.position, np.full(self.n, base, dtype=np.int64)
        )


def _static_tables(compiled: CompiledKernel) -> _StaticTables:
    """Launch-independent tables of ``compiled``; the caller caches them.

    Eligibility and the replay-order decision are the analyzer's
    verdicts (:func:`repro.analyze.analyze_kernel`, cached on the
    kernel), so the engine and ``engine="auto"`` dispatch agree by
    construction.  Raises :class:`SimulationError` for a graph the
    batched engine cannot run.
    """
    index = compiled.index
    analysis = analyze_kernel(compiled)
    if analysis.engine == "event":
        raise SimulationError(
            f"'{index.name}' cannot run on the batched engine: "
            f"{analysis['RA045'].data['problem']}; use engine='auto' to dispatch "
            "to a capable engine automatically"
        )
    order = index.full_order
    order_pos = {node.node_id: i for i, node in enumerate(order)}
    prepass = analysis.prepass_nodes
    injector_base = _injector_bases(index)
    ready_offset, deciding, complete_offset, load_keys = _static_walk(index, injector_base)
    if prepass is None:
        load_keys = {}
    # Only barriers and scratch nodes need the event engine's firing
    # order (and scratch levels); other graphs keep none of its tables.
    track_order = bool(
        index.nodes_with_opcode(Opcode.BARRIER, Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE)
    )
    wave_order, level_ends = (
        _scratch_levels(index, order_pos) if track_order else (order, frozenset())
    )
    return _StaticTables(
        order=order,
        sink_nodes=[n.node_id for n in order if n.opcode in EFFECT_OPCODES],
        order_pos=order_pos,
        prepass_nodes=prepass,
        ordered_loads=prepass is not None,
        load_keys=load_keys,
        load_rank=_load_ranks(load_keys, order_pos),
        wave_order=wave_order,
        scratch_level_ends=level_ends,
        track_order=track_order,
        injector_base=injector_base,
        ready_offset=ready_offset,
        deciding=deciding,
        complete_offset=complete_offset,
        engine=analysis.engine,
    )


def _injector_bases(index: KernelIndex) -> dict[int, int]:
    """Push-index base of each injected source's tokens.

    The injection event sends every injector's tokens in graph node
    order (``CycleSimulator._inject_thread``), one per fan-out edge.
    """
    stride = 1 + max((len(s) for s in index.successors.values()), default=0)
    injectors = [
        node.node_id
        for node in index.nodes
        if node.opcode in SOURCE_OPCODES or node.opcode is Opcode.ELEVATOR
    ]
    return {nid: i * stride for i, nid in enumerate(injectors)}


def _scratch_levels(index: KernelIndex, order_pos: dict) -> tuple[list, frozenset]:
    """Wave evaluation order and the last scratch node of each level.

    A scratch node's level is one more than the deepest scratch node
    among its ancestors.  Sorting the topological order by the deepest
    scratch level *above* each node keeps it topological and puts
    every level-``k`` scratch node before any consumer of one, so a
    level's accesses are all issued before its merged stream replays.
    """
    order = index.full_order
    level, depth = scratch_levels(index, order)
    wave_order = sorted(order, key=lambda n: (depth[n.node_id], order_pos[n.node_id]))
    last: dict[int, int] = {}
    for node in wave_order:
        if node.node_id in level:
            last[level[node.node_id]] = node.node_id
    return wave_order, frozenset(last.values())


def _static_walk(
    index: KernelIndex, injector_base: dict[int, int]
) -> tuple[dict, dict, dict, dict]:
    """Timing of the kernel's thread-independent sub-DAG, and the load
    nodes' event-order keys, in one walk of the topological order.

    A configured core is a static pipeline: thread ``p`` enters at
    ``inject = p // replicas``.  A source completes at its injection,
    and a pure node whose operands all come from *static* nodes (sources
    and such pure nodes) fires at its injection plus a constant.  For
    every node whose operands are all static, the walk records

    * ``ready_offset``: ``max(0, max_e(complete[src] + edge latency))``,
      its operand-ready cycle over ``inject``;
    * ``deciding``: its deciding input edge, the operand token the event
      engine processes last (:class:`_FireOrder`);

    and ``complete_offset`` is each static node's completion cycle over
    ``inject``: 0 for a source, the ready offset plus the unit latency
    for a pure node.

    The event engine classifies a load at the heap-processing moment
    of its index token's arrival.  For a static index chain that moment
    is ``d + inject(t)`` with a thread-independent ``d``, and same-cycle
    arrivals process in push-sequence order — recursively, the chain of
    the deciding producer's own fire moments, tie-broken by its push
    index within that fire, bottoming out at the injection event (which
    pops *after* same-cycle token events and pushes every source's
    tokens from its :func:`_injector_bases` base).  The deciding edge is
    the one with the latest (moment, chain, push index).

    Each node therefore gets a component vector: fire moments encoded
    as ``2*cycle + kind`` (token fire = 0, injection = 1) that shift
    by ``2*inject(t)`` per thread, interleaved with shift-free
    push-index components.  Sorting all of a wave's load accesses by
    these vectors (then node position, then thread position)
    reproduces the event engine's access order exactly; ``load_keys``
    holds them per load and eLDST node.
    """
    inputs, push_offset = index.inputs, index.push_offset
    unit_latency, edge_latency = index.unit_latency, index.edge_latency
    ready_offset: dict[int, int] = {}
    deciding: dict[int, Edge] = {}
    complete_offset: dict[int, int] = {}
    chains: dict[int, list[tuple[float, bool]]] = {}
    keys: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for node in index.full_order:
        nid = node.node_id
        if node.opcode in SOURCE_OPCODES:
            complete_offset[nid] = 0
            chains[nid] = [(1.0, True), (float(injector_base[nid]), False)]
            continue
        node_inputs = inputs[nid]
        if not node_inputs or any(edge.src not in chains for edge in node_inputs):
            continue  # downstream of a memory access: thread-varying
        best: "tuple[int, list[tuple[float, bool]], int, Edge] | None" = None
        ready = 0
        for edge in node_inputs:
            src = edge.src
            moment = complete_offset[src] + edge_latency[(src, nid)]
            ready = max(ready, moment)
            candidate = (moment, chains[src], push_offset[edge], edge)
            if best is None or candidate[:3] > best[:3]:
                best = candidate
        ready_offset[nid] = ready
        deciding[nid] = best[3]
        chain = [(2.0 * ready, True)] + best[1] + [(float(best[2]), False)]
        if node.opcode in (Opcode.LOAD, Opcode.ELDST):
            components = np.array([value for value, _ in chain])
            moments = np.array([is_moment for _, is_moment in chain])
            keys[nid] = (components, moments)
        elif node.opcode in PURE_OPCODES:
            complete_offset[nid] = ready + unit_latency[nid]
            chains[nid] = chain
    return ready_offset, deciding, complete_offset, keys


def _retire(nid: int, inputs: tuple, live: dict[int, np.ndarray], uses: dict[int, int]) -> None:
    """Drop the vectors in ``live`` that no node after ``nid`` reads."""
    for src, _, _ in inputs:
        uses[src] -= 1
        if uses[src] == 0:
            live.pop(src, None)
    if uses[nid] == 0:
        live.pop(nid, None)


class BatchedSimulator:
    """Batched vectorised model of one (d)MT-CGRA core.

    Constructed for graphs the analyzer's engine verdict sends to a
    batched engine (:func:`repro.graph.interthread.window_batch_problem`
    returns ``None``) — the verdict ``engine="auto"`` dispatches on, so
    eligibility is decided in exactly one place.  The engine names itself
    after that verdict: ``"batched"`` or ``"window-batched"``.
    """

    def __init__(
        self,
        compiled: CompiledKernel,
        launch: KernelLaunch,
        hierarchy: MemoryHierarchy | None = None,
        memory: MemoryImage | None = None,
        cores: int = 1,
        core: int = 0,
    ) -> None:
        if compiled.graph.metadata.get("num_threads") != launch.graph.metadata.get(
            "num_threads"
        ):
            raise SimulationError("compiled kernel and launch disagree on thread count")
        # The graph-structural tables and event-order keys depend only on
        # the compiled kernel, so they are computed once and cached on it:
        # repeated simulations of the same kernel (benchmark loops, wave
        # after wave of explore campaigns) skip the static analysis, and
        # the eligibility check that guards them.  A rejected graph
        # caches nothing, so every construction raises.
        static = compiled.__dict__.get("_batched_static")
        if static is None:
            static = _static_tables(compiled)
            compiled.__dict__["_batched_static"] = static
        self._static = static
        self._index = compiled.index
        self.compiled = compiled
        self.config: SystemConfig = compiled.config
        self.graph: DataflowGraph = compiled.graph
        #: Engine name recorded in ``stats.extra["engine"]`` and the result.
        self.engine = static.engine
        self.launch = launch
        self.geometry: ThreadGeometry = ThreadGeometry(compiled.block_dim)
        self.num_threads = self.geometry.num_threads
        # The threads this core executes: its shard of the analyzer's plan.
        self._threads = core_threads(compiled, cores, core)

        self.memory = memory if memory is not None else launch.build_memory_image()
        self.hierarchy = hierarchy or MemoryHierarchy(self.config.memory)
        self.stats = ExecutionStats(threads=int(self._threads.size))
        self.outputs: dict[str, list[Any]] = {
            str(node.param("name")): [None] * self.num_threads
            for node in static.order
            if node.opcode is Opcode.OUTPUT
        }

        self._ports = max(1, compiled.replicas)
        self._fo: _FireOrder | None = None
        #: Scratch accesses queued until their level replays.
        self._scratch_level: list[tuple] = []
        #: Latest arrival of the last replayed scratch level.
        self._scratch_horizon = -math.inf
        # The ``p``-th thread of this core is injected at cycle ``p // replicas``.
        self._inject = (
            np.arange(self._threads.size, dtype=np.int64) // self._ports
        ).astype(np.float64)
        # One table per distinct communication map, shared by every node
        # with that map; one forwarding ranking per (map, predicate),
        # filled as the value pass moves its eLDST nodes' data.
        tables: dict[tuple, _InterthreadTable] = {}
        self._it: dict[int, _InterthreadTable] = {}
        for node in static.order:
            if node.opcode in (Opcode.ELEVATOR, Opcode.ELDST):
                key = map_key(node)
                if key not in tables:
                    tables[key] = self._build_interthread_table(node)
                self._it[node.node_id] = tables[key]
        self._rankings: dict[tuple, _ForwardRanking] = {}
        # Memory model: a vectorised L1 over the hierarchy's own L2 and
        # DRAM (the event engine's cache and device, so a sharded core
        # sees its L2 slice and queues on the shared DRAM banks),
        # counting into the hierarchy's stats.
        self._analytic = AnalyticMemoryModel(self.hierarchy)
        self._l1_baseline = (
            self.hierarchy.l1.stats.misses,
            self.hierarchy.l1.stats.hits,
        )
        self._completion = 0.0
        self._trace = active_tracer()
        self._core = core
        self._lane: dict[int, int] = (
            {} if self._trace is None else trace_lanes(self._trace, compiled, self._core)
        )

    def _trace_node(self, node: Node, issue: np.ndarray, complete: np.ndarray) -> None:
        """One count-weighted op event spanning the node's wave activity."""
        tracer = self._trace
        if tracer is None or issue.size == 0:
            return
        ts = float(issue.min())
        finite = complete[np.isfinite(complete)]
        end = float(finite.max()) if finite.size else ts
        tracer.event(
            node.label(),
            "op",
            ts,
            end - ts,
            pid=self._core,
            tid=self._lane[node.node_id],
            args={"count": int(issue.size), "cls": node.unit_class.name},
        )

    def _build_interthread_table(self, node: Node) -> _InterthreadTable:
        t = self._threads
        src = producer_map(node, self.geometry.block_dim)[t]
        # Map global source TIDs to rows of this core's sorted thread
        # vector: an offset when it is contiguous (every single-core run),
        # a binary search otherwise (a block-cyclic shard).
        has_src = src >= 0
        if t.size and t[-1] - t[0] == t.size - 1:
            rows = src - t[0]
            found = has_src & (rows >= 0) & (rows < t.size)
        else:
            safe = np.where(has_src, src, 0)
            rows = np.minimum(np.searchsorted(t, safe), t.size - 1)
            found = has_src & (t[rows] == safe)
        if bool((~found & has_src).any()):
            # A shard of the plan is a union of whole windows, so every
            # source is in-shard; a miss here would be an engine bug.
            raise SimulationError(
                f"{node.label()} communicates with a thread outside this "
                "core's shard"
            )
        src_pos = np.where(found, rows, np.int64(-1))
        if node.opcode is Opcode.ELDST:
            delta = abs(int(node.param("delta")))
            receives = (src_pos >= 0) & (t == src + delta)
        else:
            receives = src_pos >= 0
        return _InterthreadTable(
            src_pos=src_pos, receives=receives, forwards=int(receives.sum())
        )

    # ------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        if not self._static.sink_nodes:
            raise SimulationError("kernel has no store or output nodes; nothing to run")
        begin = self._trace.clock() if self._trace is not None else 0.0
        if self._threads.size:
            self._time(self._value_pass())
        if self._trace is not None:
            self._trace.wall_event(
                "wave@0", begin, args={"threads": int(self._threads.size)}
            )

        cycles = int(self._completion)
        if cycles > MAX_CYCLES:
            raise DeadlockError(
                f"simulation of '{self.graph.name}' exceeded {MAX_CYCLES} cycles"
            )
        self._accumulate_counters()
        self.stats.cycles = cycles
        l1 = self.hierarchy.l1.stats
        misses = l1.misses - self._l1_baseline[0]
        hits = l1.hits - self._l1_baseline[1]
        if misses:
            self.stats.bump("batched_line_misses", misses)
        self.stats.bump("batched_line_hits", hits)
        self.stats.extra["engine"] = self.engine
        self.stats.extra.setdefault("cores", 1)
        return SimulationResult(
            cycles=cycles,
            stats=self.stats,
            memory=self.memory,
            outputs=self.outputs,
            engine=self.engine,
            cores=1,
            hierarchies=(self.hierarchy,),
        )

    # ------------------------------------------------------------ value pass
    def _value_pass(self) -> dict[int, _Stream]:
        """Move every node's data over the whole wave, in wave order.

        No value depends on a cycle, so this pass needs no timing and
        makes no memory-model call.  Returns each memory node's access
        stream for the timing sweep (:meth:`_time`).
        """
        inputs = self._index.inputs
        values: dict[int, np.ndarray] = {}
        uses = {nid: len(succ) for nid, succ in self._index.successors.items()}
        streams: dict[int, _Stream] = {}
        for node in self._static.wave_order:
            nid = node.node_id
            op = node.opcode
            operands = [values[edge.src] for edge in inputs[nid]]
            if op in SOURCE_OPCODES:
                value = self._source_value(node)
            elif op in PURE_OPCODES:
                value = _eval_pure_vec(node, operands)
            elif op in MEMORY_OPCODES:
                value, streams[nid] = self._move_data(node, operands)
            elif op is Opcode.ELEVATOR:
                # Consumers with a valid source gather its token, the
                # rest get the fallback constant.
                src_pos = self._it[nid].src_pos
                valid = src_pos >= 0
                const = coerce(node.param("const"), node.dtype)
                value = np.where(valid, operands[0][np.where(valid, src_pos, 0)], const)
            elif op is Opcode.BARRIER:
                value = operands[0]
            elif op is Opcode.OUTPUT:
                value = operands[0]
                slot = self.outputs[str(node.param("name"))]
                for tid, item in zip(self._threads.tolist(), value.tolist()):
                    slot[tid] = item
            else:
                raise SimulationError(f"batched engine cannot execute {op.value}")
            values[nid] = value
            _retire(nid, inputs[nid], values, uses)
        return streams

    def _source_value(self, node: Node) -> np.ndarray:
        op = node.opcode
        tids = self._threads
        if op is Opcode.CONST:
            scalar = coerce(node.param("value"), node.dtype)
            return np.full(tids.size, scalar, dtype=_NP_DTYPE[node.dtype])
        dx, dy = (self.geometry.block_dim + (1, 1))[:2]
        if op is Opcode.TID_X:
            return tids % dx
        if op is Opcode.TID_Y:
            return (tids // dx) % dy
        return tids.copy()  # TID_LINEAR

    def _move_data(self, node: Node, operands: list[np.ndarray]) -> tuple[np.ndarray, _Stream]:
        """Read or write a memory node's array; returns its values and stream.

        Only an eLDST's loading heads (predicate, plus rows without a
        source) touch memory; every other row's value is a gather from
        its head's load over the forwarding forest
        (:meth:`_forward_ranking`).  A forwarded thread's index is
        zeroed: the event engine never evaluates it, so neither may we.
        """
        name = str(node.param("array"))
        spec = self.memory.spec(name)
        backing = self.memory.array(name)
        rows, index = None, operands[0]
        if node.opcode is Opcode.ELDST:
            predicate = operands[1].astype(np.bool_, copy=False)
            rows = predicate | (self._it[node.node_id].src_pos < 0)
            index = np.where(rows, _coerce_vec(index, DType.I32), np.int64(0))
        idx = self._checked_indices(node, index, spec.length)
        ranking = None if rows is None else self._forward_ranking(node, rows)
        stream = _Stream(rows, spec.base_address + idx * spec.elem_bytes, ranking)
        if node.opcode in (Opcode.STORE, Opcode.SCRATCH_STORE):
            backing[idx] = operands[1]
            return operands[1], stream
        if ranking is not None:
            idx = idx[ranking.head]
        return _coerce_vec(backing[idx], node.dtype), stream

    def _checked_indices(self, node: Node, index: np.ndarray, length: int) -> np.ndarray:
        idx = _coerce_vec(index, DType.I32)
        bad = (idx < 0) | (idx >= length)
        if np.any(bad):
            offender = int(idx[np.argmax(bad)])
            raise MemoryModelError(
                f"{'store' if node.opcode in (Opcode.STORE, Opcode.SCRATCH_STORE) else 'load'} "
                f"out of bounds: {node.param('array')}[{offender}] (length {length})"
            )
        return idx

    def _forward_ranking(self, node: Node, heads: np.ndarray) -> _ForwardRanking:
        """The ranked forwarding forest of ``node``, shared by every eLDST
        node with the same map and predicate producer.

        ``heads`` (predicate plus rows without a source) is a function of
        exactly those two, so the ranking, and the deadlock check on the
        non-head rows the event engine would never push to, run once
        per pair and simulator.
        """
        nid = node.node_id
        key = (map_key(node), self._index.inputs[nid][1].src)
        ranking = self._rankings.get(key)
        if ranking is not None:
            return ranking
        table = self._it[nid]
        waiting = ~heads & ~table.receives
        if bool(waiting.any()):
            tid = int(self._threads[np.argmax(waiting)])
            raise DeadlockError(
                f"kernel '{self.graph.name}' deadlocked: thread {tid} waits "
                f"forever for a value {node.label()} never forwards to it"
            )
        ranking = _rank_forest(table.src_pos, heads)
        if ranking is None:  # pragma: no cover - window_batch_problem rejects recurrences
            raise DeadlockError(f"{node.label()} forwarding chain does not terminate")
        self._rankings[key] = ranking
        return ranking

    # ---------------------------------------------------------- timing sweep
    def _time(self, streams: dict[int, _Stream]) -> None:
        """Issue every node over the wave and walk the value pass's streams.

        The loads of an order-stable graph walk first, as one stream in
        the event engine's order (:meth:`_time_wave_loads`); every other
        node then issues in wave order (:meth:`_time_node`).
        """
        static = self._static
        avail: dict[int, np.ndarray] = {}
        uses = {nid: len(succ) for nid, succ in self._index.successors.items()}
        if static.track_order:
            self._fo = _FireOrder(static.order, self._threads.size, self._inject)
        prepass = static.prepass_nodes or frozenset()
        if prepass:
            self._time_wave_loads(streams, avail, uses)
        for node in static.wave_order:
            nid = node.node_id
            if nid not in prepass:
                self._time_node(node, streams, avail)
                _retire(nid, self._index.inputs[nid], avail, uses)

    def _time_wave_loads(
        self, streams: dict[int, _Stream], avail: dict[int, np.ndarray], uses: dict[int, int]
    ) -> None:
        """Pre-pass: walk the wave's whole load stream in event order.

        The pure index sub-DAG and every load are static
        (:func:`_static_walk`): each load issues at its injection plus
        its ready offset, and the index nodes record only their firing
        order and trace (each exactly once; the main sweep skips them).
        The combined stream is sorted with the precomputed event-order
        keys and walked (:meth:`_walk`) before any store walks.

        A load's first key component is twice its ready offset, so the
        replay order sorts the stream by issue cycle: the walked issue
        cycles are the stream's issue-cycle histogram, read in order.
        """
        static = self._static
        tracer = self._trace
        prepass_begin = tracer.clock() if tracer is not None else 0.0
        loads: list[Node] = []
        for node in static.order:
            nid = node.node_id
            if nid not in static.prepass_nodes:
                continue
            if node.opcode in (Opcode.LOAD, Opcode.ELDST):
                loads.append(node)
                if self._fo is not None:
                    self._ready_issue(node, avail)  # records the firings
            else:
                self._time_node(node, streams, avail)
            _retire(nid, self._index.inputs[nid], avail, uses)

        n = self._threads.size
        nids = [node.node_id for node in loads]
        rows = [streams[nid].rows for nid in nids]
        slots = self._replay_order(nids, self._inject, rows)
        # Memory rows per issue cycle: each load's per-inject-cycle counts,
        # shifted by its ready offset.
        offsets = [static.ready_offset[nid] for nid in nids]
        low = min(offsets)
        cycle = self._inject.astype(np.int64)
        cycles = int(cycle[-1]) + 1
        every = np.bincount(cycle, minlength=cycles)
        histogram = np.zeros(cycles + max(offsets) - low, dtype=np.int64)
        for offset, mask in zip(offsets, rows):
            count = every if mask is None else np.bincount(cycle[mask], minlength=cycles)
            histogram[offset - low : offset - low + cycles] += count
        issued = np.repeat(np.arange(low, low + histogram.size, dtype=np.float64), histogram)
        # Each load's addresses go straight to their replay slots: the
        # stream is built once, in replay order, and read back through
        # the same slots.
        addresses = np.empty(issued.size, dtype=np.int64)
        for slot, mask, nid in zip(slots, rows, nids):
            source = streams[nid].addresses
            if mask is not None:
                slot, source = slot[mask], source[mask]
            addresses[slot] = source
        if tracer is not None:
            tracer.wall_event("prepass", prepass_begin, args={"loads": len(loads)})
        complete = self._walk("wave loads", addresses, issued, is_store=False)
        del addresses, issued
        for slot, mask, node, offset in zip(slots, rows, loads, offsets):
            if mask is None:
                done = complete[slot]
            else:
                # Only an eLDST's loading heads touch memory; the other
                # rows take their forwarded value (:meth:`_time_eldst`).
                done = np.full(n, np.nan)
                done[mask] = complete[slot[mask]]
            if node.opcode is Opcode.ELDST or tracer is not None:
                issue = self._inject + offset
                if node.opcode is Opcode.ELDST:
                    done = self._time_eldst(node, issue, streams[node.node_id], done)
                if tracer is not None:
                    self._trace_node(node, issue, done)
            avail[node.node_id] = done

    def _replay_order(
        self, nids: list[int], inject: np.ndarray, rows: "list[np.ndarray | None]"
    ) -> np.ndarray:
        """Event-order slot of every row of a wave's load stream.

        The stream holds one block of ``inject.size`` rows per load node
        in ``nids``, in thread position order; ``rows[b]`` masks the rows
        of block ``b`` that touch memory (``None``: all; an eLDST loads
        only at its heads).  Accesses replay by their first key component
        ``first + 2*inject``, then by the load node's per-kernel rank
        (:func:`_load_ranks`), then by thread position.  Returns
        ``slots``: ``slots[b, i]`` is the replay position of row ``i`` of
        block ``b``, and ``-1`` on a row that touches no memory.

        The order is found by counting, not sorting.  The first two
        components form one integer per (block, inject cycle) pair,
        ``K = (first_b + 2j)·L + rank_b`` over the ``L`` ranked load
        nodes, and ``K`` is unique per pair.  With ``c_b = first_b·L +
        rank_b = 2L·d_b + e_b`` (``0 <= e_b < 2L``),
        ``K = 2L·(j + d_b) + e_b``: the pairs in ``K`` order are the
        cells of a grid with one row per block, ranked by ``e_b``, and
        one column per ``j + d_b``, read column by column.  Each cell
        holds its pair's count of memory rows; a prefix sum over the grid
        gives where each pair's rows end, and thread position orders the
        rows inside a pair.  Inject cycles never decrease with position,
        so a pair's rows are consecutive within the block.
        """
        n = inject.size
        load_keys, load_rank = self._static.load_keys, self._static.load_rank
        ranked = 2 * len(load_rank)
        first = np.array([load_keys[nid][0][0] for nid in nids], dtype=np.int64)
        c = first * len(load_rank) + np.array([load_rank[nid] for nid in nids], dtype=np.int64)
        d = c // ranked
        grid_row = np.empty(c.size, dtype=np.int64)
        grid_row[np.argsort(c - ranked * d, kind="stable")] = np.arange(c.size)
        d -= d.min()
        cycle = inject.astype(np.int64)
        cycles = int(cycle[-1]) + 1

        def memory_rows(memory: "np.ndarray | None") -> tuple:
            """A block's memory rows (``None``: all), their inject cycles,
            the count of memory rows per cycle and, per memory row, the
            pair's memory rows at or after it."""
            at = cycle if memory is None else cycle[memory]
            count = np.bincount(at, minlength=cycles)
            return memory, at, count, np.cumsum(count)[at] - np.arange(at.size)

        every = memory_rows(None)
        blocks = [every if mask is None else memory_rows(np.flatnonzero(mask)) for mask in rows]
        grid = np.zeros((c.size, cycles + int(d.max())), dtype=np.int64)
        for g, lo, (_, _, count, _) in zip(grid_row.tolist(), d.tolist(), blocks):
            grid[g, lo : lo + cycles] = count
        # Inclusive prefix sum in column-major order: down each column,
        # plus every earlier column's total.
        np.cumsum(grid, axis=0, out=grid)
        earlier = np.cumsum(grid[-1])
        earlier -= grid[-1]
        grid += earlier
        # A memory row's slot is its pair's end minus the pair's memory
        # rows at or after it.
        slots = np.empty((c.size, n), dtype=np.int64)
        for slot, g, lo, block in zip(slots, grid_row.tolist(), d.tolist(), blocks):
            memory, at, _, after = block
            end = grid[g, lo : lo + cycles][at]
            end -= after
            if memory is None:
                slot[:] = end
            else:
                slot.fill(-1)
                slot[memory] = end
        return slots

    def _time_node(
        self, node: Node, streams: dict[int, _Stream], avail: dict[int, np.ndarray]
    ) -> None:
        """Issue ``node`` over the whole wave and record its completions.

        A source is available at injection; any other node issues through
        its ports (:meth:`_ready_issue`), except that a scratch node queues
        its accesses until its level replays
        (:meth:`_replay_scratch_level`).  A static pure node keeps no
        completion vector: its consumers read its completion offset.
        """
        nid = node.node_id
        op = node.opcode
        if op in SOURCE_OPCODES:
            if self._fo is not None:
                self._fo.emit_injected(nid, self._static.injector_base[nid])
            return
        static_pure = nid in self._static.complete_offset
        if static_pure and self._fo is None and self._trace is None:
            return  # its consumers read the static completion offset
        ready, issue, order = self._ready_issue(node, avail)
        if op in (Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE):
            self._scratch_level.append((node, ready, issue, streams[nid].addresses))
            if nid in self._static.scratch_level_ends:
                self._replay_scratch_level(self._scratch_level, avail)
                self._scratch_level = []
            return
        if op in PURE_OPCODES:
            complete = issue + self._index.unit_latency[nid]
        elif op in (Opcode.LOAD, Opcode.STORE, Opcode.ELDST):
            complete = self._time_global(node, streams[nid], issue, order)
        elif op is Opcode.ELEVATOR:
            complete = self._time_elevator(node, issue)
        elif op is Opcode.BARRIER:
            complete = self._time_barrier(node, issue)
        else:  # OUTPUT
            complete = issue + 1.0
        if op in (Opcode.STORE, Opcode.OUTPUT):
            self._completion = max(self._completion, float(complete.max()))
        if not static_pure:
            avail[nid] = complete
        if self._trace is not None:
            self._trace_node(node, issue, complete)

    # ----------------------------------------------------------- issue ports
    def _ready_issue(
        self, node: Node, avail: dict[int, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, "np.ndarray | None"]:
        """Operand-ready cycles, issue cycles and (when the wave tracks the
        event order) the firings' processing order of one node.

        A node whose operands are all static (:func:`_static_walk`) is
        ready at ``inject + ready offset`` and issues on that cycle.  No
        issue port delays it: port ``k`` serves firings ``k, k + replicas,
        ...`` in thread position order (the processing order on such a
        node, :meth:`_FireOrder.fire_static`), and ``inject = position //
        replicas`` makes their ready cycles rise by exactly one per
        firing, so the FIFO (:func:`~repro.memory.fifo.fifo_starts`)
        starts each one on its ready cycle.  Other nodes queue in
        :meth:`_issue`; a static producer's tokens arrive at ``inject +
        completion offset + edge latency``.
        """
        nid = node.node_id
        static = self._static
        fo = self._fo
        push_offset = self._index.push_offset
        offset = static.ready_offset.get(nid)
        if offset is not None:
            ready = self._inject + offset
            if fo is None:
                return ready, ready, None
            deciding = static.deciding[nid]
            fo.fire_static(nid, ready, deciding.src, push_offset[deciding])
            issue, order = ready, fo.position
        else:
            edge_latency = self._index.edge_latency
            complete_offset = static.complete_offset
            arrivals = []
            for edge in self._index.inputs[nid]:
                latency = edge_latency[(edge.src, nid)]
                produced = complete_offset.get(edge.src)
                arrival = (
                    avail[edge.src] + latency
                    if produced is None
                    else self._inject + (produced + latency)
                )
                arrivals.append((edge, arrival))
            ready = self._inject
            for _, arrival in arrivals:
                ready = np.maximum(ready, arrival)
            if fo is None:
                return ready, self._issue(ready), None
            order = fo.fire_node(
                nid,
                ready,
                [(edge.src, push_offset[edge], arr) for edge, arr in arrivals],
            )
            issue = self._issue(ready, order)
        if node.opcode not in (Opcode.BARRIER, Opcode.ELEVATOR):
            fo.emit_inline(nid)
        return ready, issue, order

    def _issue(self, ready: np.ndarray, order: "np.ndarray | None" = None) -> np.ndarray:
        """Deterministic multi-server queue over the node's issue ports.

        Firings are serviced in ``order`` (the event engine's processing
        order, on waves that track it) or else in ready order, round-robin
        over the ``replicas`` ports, each a FIFO retiring one operation per
        cycle: :func:`~repro.memory.fifo.fifo_starts` over the port streams.
        """
        ports, n = self._ports, ready.size
        # Ready times are often monotone in thread position (about 40% of
        # the calls on the engine_4k kernels), so the sort is often a
        # no-op; detect that with one cheap pass instead of an argsort.
        if order is None and not bool((ready[1:] >= ready[:-1]).all()):
            order = np.argsort(ready, kind="stable")
        starts = [0]
        if ports > 1:
            # Port p serves firings p, p + ports, ...; the first n % ports get one extra.
            starts = [p * (n // ports) + min(p, n % ports) for p in range(ports)]
            layout = np.concatenate([np.arange(p, n, ports) for p in range(ports)])
            order = layout if order is None else order[layout]
        idle = [-math.inf] * len(starts)
        if order is None:
            return fifo_starts(ready.copy(), starts, idle, 1)
        issue = np.empty_like(ready)
        issue[order] = fifo_starts(ready[order], starts, idle, 1)
        return issue

    # ---------------------------------------------------------- inter-thread
    def _time_elevator(self, node: Node, issue: np.ndarray) -> np.ndarray:
        """Every producer fires (consuming its issue port); consumers with
        a valid source receive its token, the rest the fallback constant
        at their injection cycle (``_inject_thread``)."""
        table = self._it[node.node_id]
        valid = table.src_pos >= 0
        gather = np.where(valid, table.src_pos, 0)
        n = issue.size
        n_valid = table.forwards
        latency = float(self._index.unit_latency[node.node_id])
        complete_valid = issue[gather] + latency
        if node.param("spilled"):
            # Producer writes the LVC, consumer reads it back.
            complete_valid = complete_valid + 2.0 * LVC_ACCESS_LATENCY
            self.stats.spilled_tokens += n_valid
            self.stats.lvc_accesses += 2 * n_valid
        avail = np.where(valid, complete_valid, self._inject + latency)
        self.stats.elevator_retags += n_valid
        self.stats.elevator_constants += n - n_valid
        if self._fo is not None:
            # A retagged token is pushed by its producer's firing; the
            # fallback constant by the consumer's injection event.
            fo = self._fo
            base = self._static.injector_base[node.node_id]
            fo.emit[node.node_id] = (
                np.where(valid, fo.row[node.node_id], fo.inj),
                np.where(valid, gather, fo.position),
                np.where(valid, 0, base),
            )
        if self._trace is not None and n:
            ts = float(issue.min())
            self._trace.event(
                f"{node.label()} retag", "interthread", ts, float(avail.max()) - ts,
                pid=self._core, tid=self._lane[node.node_id],
                args={"retags": n_valid, "constants": n - n_valid},
            )
        return avail

    def _time_eldst(
        self, node: Node, issue: np.ndarray, stream: _Stream, load_complete: np.ndarray
    ) -> np.ndarray:
        """Completion cycles over the static forwarding chains.

        Timing follows the event engine exactly: a head completes at its
        memory load's completion plus the eLDST completion latency ``L``
        (issue latency plus spill/external-buffer extra); a forwarded
        thread at ``complete[t] = max(issue[t], complete[src]) + L``.
        :func:`_resolve_forest` evaluates that recurrence over the
        ranking the value pass built.
        """
        n = issue.size
        lat = self.config.latency
        extra = 0.0
        if node.param("spilled"):
            extra = 2.0 * LVC_ACCESS_LATENCY
            self.stats.spilled_tokens += n
            self.stats.lvc_accesses += 2 * n
        elif node.param("external_buffer_nodes"):
            extra = float(int(node.param("external_buffer_nodes")) * lat.elevator)
        latency = float(lat.ldst_issue) + extra

        # Heads depend on nobody for timing, whatever their position in
        # the forwarding chain.
        heads, depth = stream.rows, stream.ranking.depth
        fwd_begin = self._trace.clock() if self._trace is not None else 0.0
        complete = _resolve_forest(stream.ranking, heads, load_complete, issue, latency)
        if depth > 0 and self._trace is not None:
            self._trace.wall_event(
                "forwarding levels", fwd_begin, args={"depth": depth}
            )

        n_heads = int(heads.sum())
        n_forwards = self._it[node.node_id].forwards
        self.stats.global_loads += n_heads
        self.stats.eldst_memory_loads += n_heads
        self.stats.eldst_forwards += n_forwards
        if self._trace is not None and n:
            ts = float(issue.min())
            self._trace.event(
                f"{node.label()} forward", "interthread", ts, float(complete.max()) - ts,
                pid=self._core, tid=self._lane[node.node_id],
                args={"heads": n_heads, "forwards": n_forwards, "depth": depth},
            )
        return complete

    def _time_barrier(self, node: Node, issue: np.ndarray) -> np.ndarray:
        """Segmented-max release per transmission window group; a barrier
        without a ``window`` is one group over the whole thread subset."""
        tids = self._threads
        window = node.param("window")
        groups = tids // int(window) if window else np.zeros_like(tids)
        unique, inverse = np.unique(groups, return_inverse=True)
        release = np.full(unique.size, -np.inf)
        np.maximum.at(release, inverse, issue)
        release += float(self.config.latency.control)
        per_thread = release[inverse]
        n = issue.size
        if self._fo is not None:
            self._emit_barrier(node, inverse, unique.size)
        self.stats.barrier_arrivals += n
        # One LVC write parking each value, one read releasing it.
        self.stats.lvc_accesses += 2 * n
        self.stats.barrier_wait_cycles += int(round(float((per_thread - issue).sum())))
        if self._trace is not None and n:
            first = np.full(unique.size, np.inf)
            np.minimum.at(first, inverse, issue)
            counts = np.bincount(inverse, minlength=unique.size)
            for g in range(unique.size):
                self._trace.event(
                    "barrier_release", "interthread", float(first[g]),
                    float(release[g] - first[g]),
                    pid=self._core, tid=self._lane[node.node_id],
                    args={"group": int(unique[g]), "count": int(counts[g])},
                )
        return per_thread + float(LVC_ACCESS_LATENCY)

    def _emit_barrier(self, node: Node, inverse: np.ndarray, groups: int) -> None:
        """A group's release is pushed by its last arrival, one send per
        parked thread in arrival order."""
        fo = self._fo
        assert fo is not None
        row = fo.row[node.node_id]
        arrival = fo.rank[row]
        by_arrival = np.lexsort((arrival, inverse))
        counts = np.bincount(inverse, minlength=groups)
        starts = np.cumsum(counts) - counts
        in_group = np.empty(arrival.size, dtype=np.int64)
        in_group[by_arrival] = np.arange(arrival.size) - np.repeat(starts, counts)
        last = by_arrival[starts + counts - 1]
        fanout = len(self._index.successors[node.node_id])
        fo.emit[node.node_id] = (
            np.full(arrival.size, row, dtype=np.int64),
            last[inverse],
            in_group * fanout,
        )

    # ---------------------------------------------------------------- memory
    def _time_global(
        self,
        node: Node,
        stream: _Stream,
        issue: np.ndarray,
        order: "np.ndarray | None",
    ) -> np.ndarray:
        """Walk a global memory node at its wave position.

        Every STORE walks here, and so does every LOAD and eLDST of a
        graph whose load indices depend on memory (RA042).  The accessing
        rows replay in the firings' processing ``order`` when the wave
        tracks it, in stable issue order otherwise (the order the event
        engine's heap services them when the phases do not overlap).
        """
        if order is None:
            order = np.argsort(issue, kind="stable")
        if stream.rows is not None:
            order = order[stream.rows[order]]
        is_store = node.opcode is Opcode.STORE
        label = f"{node.opcode.value} {node.param('array')}"
        complete = np.full(issue.shape, np.nan)
        complete[order] = self._walk(label, stream.addresses[order], issue[order], is_store)
        if node.opcode is Opcode.ELDST:
            return self._time_eldst(node, issue, stream, complete)
        return complete

    def _walk(
        self, label: str, addresses: np.ndarray, issue: np.ndarray, is_store: bool
    ) -> np.ndarray:
        """Replay an access stream, already in replay order, through the L1.

        Returns each access's completion cycle, in the same order.  This
        is the engine's only L1 walk: it is one host ``tag walk`` span
        and one count-weighted ``mem`` event.
        """
        tracer = self._trace
        begin = tracer.clock() if tracer is not None else 0.0
        complete = self._analytic.access_batch(addresses, issue, is_store=is_store)
        if tracer is not None:
            tracer.wall_event("tag walk", begin, args={"accesses": int(issue.size)})
            if issue.size:
                ts = float(issue.min())
                tracer.event(
                    label, "mem", ts, float(complete.max()) - ts,
                    pid=self._core, tid=MEM_LANE,
                    args={"count": int(issue.size)},
                )
        return complete

    def _replay_scratch_level(
        self, level: list[tuple], avail: dict[int, np.ndarray]
    ) -> None:
        """Serve one scratch level's merged access stream in event order.

        The event engine calls ``Scratchpad.access`` when a scratch
        node's last operand token arrives, so the stream is ordered by
        the nodes' ``ready`` cycles, not their issue cycles; barriers keep
        different levels' arrival ranges apart, so each level replays as
        one stream with the bank state carried over from the last.
        """
        n = self._threads.size
        ready = np.concatenate([access[1] for access in level])
        if float(ready.min()) <= self._scratch_horizon:
            # window_batch_problem admits only barrier-separated levels.
            raise SimulationError(
                f"{level[0][0].label()}'s scratch level overlaps the previous "
                "level in time; its replay would not follow the event order"
            )
        self._scratch_horizon = float(ready.max())
        issue = np.concatenate([access[2] for access in level])
        addresses = np.concatenate([access[3] for access in level])
        writes = np.repeat(
            [access[0].opcode is Opcode.SCRATCH_STORE for access in level], n
        )
        fo = self._fo
        assert fo is not None
        rows = np.repeat(
            np.array([fo.row[access[0].node_id] for access in level], dtype=np.int64), n
        )
        order = np.argsort(
            fo.events_rank(rows, np.tile(fo.position, len(level))), kind="stable"
        )
        complete = np.empty(order.size)
        complete[order] = self.hierarchy.scratchpad.access_batch(
            addresses[order], writes[order], issue[order].astype(np.int64)
        )
        for block, (node, _, node_issue, _) in enumerate(level):
            done = complete[block * n : (block + 1) * n]
            avail[node.node_id] = done
            is_store = node.opcode is Opcode.SCRATCH_STORE
            if is_store:
                self._completion = max(self._completion, float(done.max()))
            if self._trace is not None:
                ts = float(node_issue.min())
                self._trace.event(
                    f"{'scratch store' if is_store else 'scratch load'} {node.param('array')}",
                    "scratch", ts, float(done.max()) - ts,
                    pid=self._core, tid=MEM_LANE, args={"count": int(n)},
                )
                self._trace_node(node, node_issue, done)

    # ------------------------------------------------------------- counters
    def _accumulate_counters(self) -> None:
        """Token, NoC and functional-unit counters.

        Every node fires exactly once per thread, so each counter is a
        per-graph constant times the thread count — equal to what the
        event engine accumulates one token at a time (the inter-thread
        handlers count their own traffic).
        """
        n = int(self._threads.size)
        stats = self.stats
        index = self._index
        for node in self._static.order:
            nid = node.node_id
            succ = index.successors[nid]
            stats.tokens_sent += len(succ) * n
            for _, dst, _ in succ:
                stats.noc_hops += index.edge_hops[(nid, dst)] * n
            if node.opcode in SOURCE_OPCODES:
                continue
            stats.token_buffer_inserts += len(index.inputs[nid]) * n
            stats.token_buffer_matches += n
            counter = _OP_COUNTERS.get(index.unit_class[nid])
            if counter is not None:
                stats.bump(counter, n)
            if node.opcode is Opcode.LOAD:
                stats.global_loads += n
            elif node.opcode is Opcode.STORE:
                stats.global_stores += n
            elif node.opcode is Opcode.SCRATCH_LOAD:
                stats.scratch_loads += n
            elif node.opcode is Opcode.SCRATCH_STORE:
                stats.scratch_stores += n
