"""Batched NumPy execution engine for the (d)MT-CGRA core.

The event-driven :class:`~repro.sim.cycle.CycleSimulator` schedules one
heap event per token per edge, which is exact but costs minutes per
configuration on the Figure 11/12 problem sizes.  The dMT-CGRA execution
model is thread-parallel — the same static graph is traversed by
thousands of tagged threads — and inter-thread communication is a
*static* consumer→producer map inside a transmission window (Sec. 3.2).
So whenever that traffic is feed-forward
(:func:`repro.graph.interthread.window_batch_problem` returns ``None``;
a graph without ELEVATOR/ELDST/BARRIER nodes is the case with no maps)
each static node can be evaluated once over a NumPy vector of all the
core's thread IDs, the way the ESL-CGRA simulator steps whole-array
state per cycle instead of per token.  The whole thread subset runs as
one wave, so a forwarding chain or barrier group is never split.

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
  per cycle, and firings are serviced in ready order.  The recurrence
  ``t_k = max(r_k, t_{k-ports} + 1)`` is evaluated in closed form with a
  running maximum, so the whole queue is vectorised.

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
ranks the load nodes by it once per compiled kernel, and sorts the whole
wave's load stream by one integer composite (first key component, node
rank, thread position) before running it through the tag model.  Stores
are replayed after the loads of their wave, in issue order — exact
whenever the store phase drains after the load phase (it does on the
streaming workloads at the fidelity-gate sizes) and a close
approximation when the phases overlap.
Store misses follow write-allocate read-for-ownership: an L1
``write_miss`` whose fill *reads* L2, exactly the counter mapping the
event engine's hierarchy records.  Graphs whose load indices depend on
other loads fall back to per-node replay order (classification stays
capacity/conflict-aware; only the cross-engine ordering guarantee is
lost).

The L1 walk is vectorised (``sim/analytic_cache.py``): per-set LRU
classification via :class:`~repro.memory.tagcore.LruTagArray`,
closed-form per-bank queue timing and a per-line previous-fill gather
for MSHR-merge timing.  Only the L2-bound residue (misses, writebacks,
write-throughs) walks the L2 one access at a time.  Replayed through
the event engine's :class:`~repro.memory.hierarchy.MemoryHierarchy`
one access at a time, the same stream completes on the same cycles
and leaves the same counters.

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
linear thread IDs (:func:`~repro.graph.interthread.elevator_source_vec`),
so token resolution is a gather over per-thread vectors rather than an
event exchange:

* **ELEVATOR** — consumers with a valid source gather the producer's
  value/issue directly (``value[src]``, ``issue[src] + elevator
  latency``); consumers without one receive the fallback constant at
  their injection cycle, exactly the event engine's ``_inject_thread``
  path.
* **ELDST** — the predicate (plus invalid-source threads) selects the
  *loading heads*; only their indices touch the memory system.  The
  forwarding chain ``head → head+Δ → …`` is a static pointer structure,
  so pointer doubling finds every row's head (whose value it gathers)
  and evaluates the event engine's exact timing recurrence
  ``complete[t] = max(issue[t], complete[src]) + L`` as a prefix maximum
  in ``ceil(log2 depth)`` rounds.
* **BARRIER** — windows partition the thread vector into groups; the
  release cycle is a segmented maximum of the group's arrival cycles
  plus the control latency.

Thread subsets (multi-core shards) of a communicating graph are accepted
under the same closure rule as the event engine
(:func:`~repro.graph.interthread.thread_subset_problem`: a union of
whole transmission windows).  The engine reports itself as
``"window-batched"`` on a communicating graph and ``"batched"``
otherwise — the analyzer's ``RA044``/``RA040`` verdict names.

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
from typing import Any, NamedTuple, Sequence

import numpy as np

# SOURCE_OPCODES is shared with the analyzer's replay-order pass so the
# static RA042/RA043 verdict and the engine's prepass decision agree.
from repro.analyze.passes import SOURCE_OPCODES as _SOURCE_OPCODES
from repro.compiler.pipeline import CompiledKernel
from repro.config.system import SystemConfig
from repro.errors import DeadlockError, MemoryModelError, SimulationError
from repro.graph.dfg import DataflowGraph
from repro.graph.interthread import (
    elevator_source_vec,
    thread_subset_problem,
    window_batch_problem,
)
from repro.graph.node import Node
from repro.graph.opcodes import DType, Opcode, UnitClass
from repro.graph.semantics import PURE_OPCODES, coerce
from repro.kernel.geometry import ThreadGeometry
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.obs.trace import MEM_LANE, active_tracer
from repro.sim.analytic_cache import AnalyticMemoryModel
from repro.sim.cycle import (
    LVC_ACCESS_LATENCY,
    edge_timing,
    unit_latency,
    validate_thread_ids,
)
from repro.sim.launch import KernelLaunch
from repro.sim.result import SimulationResult
from repro.sim.stats import ExecutionStats

__all__ = ["BatchedSimulator"]

_NP_DTYPE = {DType.F32: np.float64, DType.I32: np.int64, DType.BOOL: np.bool_}
_U32_MASK = 0xFFFFFFFF


class _StaticTables(NamedTuple):
    """Launch-independent analysis of one compiled kernel, cached on it."""

    order: list
    inputs: dict
    successors: dict
    edge_latency: dict
    edge_hops: dict
    sink_nodes: list
    order_pos: dict
    load_nodes: list
    prepass_nodes: "set[int] | None"
    ordered_loads: bool
    load_keys: dict
    load_rank: dict


class _InterthreadTable(NamedTuple):
    """Static consumer→producer structure of one inter-thread node.

    ``src_pos`` maps each row (position in the core's thread vector) to
    the row of its producer, or ``-1`` when the thread has no valid
    source; ``receives`` marks rows the event engine actually pushes a
    forwarded value to (eLDST: ``consumer == source + |delta|``, the
    Fig. 9 loop-back condition).
    """

    src_pos: np.ndarray
    receives: np.ndarray


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
    IEEE doubles.
    """
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


def _forward_chains(
    src_pos: np.ndarray,
    heads: np.ndarray,
    head_complete: np.ndarray,
    issue: np.ndarray,
    latency: float,
) -> "tuple[np.ndarray, np.ndarray, int] | None":
    """Resolve eLDST forwarding forests by pointer doubling.

    ``src_pos`` points every non-head row at the row it receives from;
    the rows in ``heads`` load from memory, complete at
    ``head_complete + L`` and root the trees.  Returns each row's head
    row (the value is a gather from it), each row's completion cycle and
    the deepest chain, or ``None`` when some chain never reaches a head.

    Unrolling the event engine's recurrence ``complete[t] = max(issue[t],
    complete[src]) + L`` down a chain ``head = c_0, …, c_p = t`` gives
    ``complete[t] = p·L + max_k y_k`` with ``y_head = load + L`` and
    ``y_k = issue_k + L - pos_k·L`` — exact, because every cycle is an
    integer-valued float64.  Distances to the head (list ranking) and
    the prefix maximum each take ``ceil(log2 depth)`` doubling rounds
    instead of one round per chain level.
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
    depth = int(pos.max(initial=0))
    y = np.where(heads, head_complete, issue) + latency - pos * latency
    # Before the round with the 2^k-step jump, y[t] covers t's 2^k
    # nearest chain rows; heads jump to themselves, so the max saturates.
    for step in jumps:
        y = np.maximum(y, y[step])
    return jump, pos * latency + y, depth


class BatchedSimulator:
    """Batched vectorised model of one (d)MT-CGRA core.

    Constructed for graphs where
    :func:`repro.graph.interthread.window_batch_problem` returns ``None``
    — the same predicate behind the analyzer's engine verdict and
    ``engine="auto"`` dispatch, so eligibility is decided in exactly one
    place; :func:`repro.sim.simulate` falls back to a capable engine
    automatically.
    """

    def __init__(
        self,
        compiled: CompiledKernel,
        launch: KernelLaunch,
        hierarchy: MemoryHierarchy | None = None,
        max_cycles: int = 20_000_000,
        thread_ids: Sequence[int] | None = None,
        memory: MemoryImage | None = None,
        trace_pid: int = 0,
    ) -> None:
        if compiled.graph.metadata.get("num_threads") != launch.graph.metadata.get(
            "num_threads"
        ):
            raise SimulationError("compiled kernel and launch disagree on thread count")
        problem = window_batch_problem(compiled.graph)
        if problem is not None:
            raise SimulationError(
                f"'{compiled.graph.name}' cannot run on the batched engine: {problem}; "
                "use engine='auto' to dispatch to a capable engine automatically"
            )
        self.compiled = compiled
        self.config: SystemConfig = compiled.config
        self.graph: DataflowGraph = compiled.graph
        #: Engine name recorded in ``stats.extra["engine"]`` and the result.
        self.engine = "window-batched" if self.graph.has_interthread() else "batched"
        self.launch = launch
        self.geometry: ThreadGeometry = ThreadGeometry(compiled.block_dim)
        self.num_threads = self.geometry.num_threads
        self.max_cycles = max_cycles

        if thread_ids is None:
            self._thread_ids = np.arange(self.num_threads, dtype=np.int64)
        else:
            self._thread_ids = np.asarray(
                validate_thread_ids(thread_ids, self.num_threads), dtype=np.int64
            )
            if self._thread_ids.size != self.num_threads and self.graph.has_interthread():
                problem = thread_subset_problem(
                    self.graph, self._thread_ids.tolist(), self.num_threads
                )
                if problem is not None:
                    raise SimulationError(
                        f"cannot simulate this thread subset of '{self.graph.name}': "
                        f"{problem}"
                    )

        self.memory = memory if memory is not None else launch.build_memory_image()
        self.hierarchy = hierarchy or MemoryHierarchy(self.config.memory)
        self.stats = ExecutionStats(threads=int(self._thread_ids.size))
        self.outputs: dict[str, list[Any]] = {}

        self._ports = max(1, compiled.replicas)
        # The graph-structural tables and event-order keys depend only on
        # the compiled kernel, so they are computed once and cached on it:
        # repeated simulations of the same kernel (benchmark loops, wave
        # after wave of explore campaigns) skip the static analysis.
        static = compiled.__dict__.get("_batched_static")
        if static is None:
            static = self._build_static(compiled)
            compiled.__dict__["_batched_static"] = static
        self._order = static.order
        self._inputs = static.inputs
        self._successors = static.successors
        self._edge_latency = static.edge_latency
        self._edge_hops = static.edge_hops
        self._sink_nodes = static.sink_nodes
        self._order_pos = static.order_pos
        self._load_nodes = static.load_nodes
        self._prepass_nodes = static.prepass_nodes
        self._ordered_loads = static.ordered_loads
        self._load_keys = static.load_keys
        self._load_rank = static.load_rank
        # The ``p``-th thread of this core is injected at cycle ``p // replicas``.
        self._inject = (
            np.arange(self._thread_ids.size, dtype=np.int64) // self._ports
        ).astype(np.float64)
        self._it = {
            node.node_id: self._build_interthread_table(node)
            for node in self._order
            if node.opcode in (Opcode.ELEVATOR, Opcode.ELDST)
        }
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
        self._trace_pid = int(trace_pid)
        self._lane: dict[int, int] = {}
        if self._trace is not None:
            self._init_trace_lanes()

    def _init_trace_lanes(self) -> None:
        """Name this core's trace process and map nodes to their PE lanes."""
        tracer = self._trace
        assert tracer is not None
        placement = (
            self.compiled.mapping.placement.node_to_unit if self.compiled.mapping else {}
        )
        tracer.set_process_name(self._trace_pid, f"core {self._trace_pid}")
        for node in self._order:
            lane = int(placement.get(node.node_id, node.node_id))
            self._lane[node.node_id] = lane
            tracer.set_lane_name(self._trace_pid, lane, f"PE {lane}")

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
            pid=self._trace_pid,
            tid=self._lane[node.node_id],
            args={"count": int(issue.size), "cls": node.unit_class.name},
        )

    def _build_static(self, compiled: CompiledKernel) -> _StaticTables:
        """Launch-independent tables, cached on the compiled kernel.

        The graph-walk helpers (``_pure_load_ancestors``,
        ``_event_order_keys``) read the structural tables through
        ``self``, so those are assigned here as they are built; the
        caller re-assigns every field from the returned record by name.
        """
        self._order = self.graph.topological_order(ignore_temporal=False)
        self._inputs = {
            node.node_id: sorted(self.graph.inputs_of(node.node_id).items())
            for node in self._order
        }
        successors = self.graph.successor_map()
        self._successors = {node.node_id: successors[node.node_id] for node in self._order}
        self._edge_latency, self._edge_hops = edge_timing(compiled)
        self._order_pos = {node.node_id: i for i, node in enumerate(self._order)}
        # Memory issue points whose accesses the event-order prepass can
        # classify: plain LOADs plus the loading threads of eLDST nodes.
        self._load_nodes = [
            n for n in self._order if n.opcode in (Opcode.LOAD, Opcode.ELDST)
        ]
        prepass_nodes = self._pure_load_ancestors()
        ordered_loads = prepass_nodes is not None
        load_keys = self._event_order_keys() if ordered_loads else {}
        return _StaticTables(
            order=self._order,
            inputs=self._inputs,
            successors=self._successors,
            edge_latency=self._edge_latency,
            edge_hops=self._edge_hops,
            sink_nodes=[
                n.node_id
                for n in self._order
                if n.opcode in (Opcode.STORE, Opcode.SCRATCH_STORE, Opcode.OUTPUT)
            ],
            order_pos=self._order_pos,
            load_nodes=self._load_nodes,
            prepass_nodes=prepass_nodes,
            ordered_loads=ordered_loads,
            load_keys=load_keys,
            load_rank=_load_ranks(load_keys, self._order_pos),
        )

    def _build_interthread_table(self, node: Node) -> _InterthreadTable:
        t = self._thread_ids
        src = elevator_source_vec(
            node, t, self.geometry.block_dim, self.num_threads
        )
        # Map global source TIDs to rows of this core's thread vector: an
        # offset when the vector is contiguous and increasing (every
        # single-core run), a search in a sorted view otherwise (shards
        # need not be contiguous, nor thread_ids sorted).
        has_src = src >= 0
        increasing = bool((t[1:] > t[:-1]).all())
        if increasing and t.size and t[-1] - t[0] == t.size - 1:
            loc = src - t[0]
            found = has_src & (loc >= 0) & (loc < t.size)
            rows = loc
        else:
            perm = None if increasing else np.argsort(t, kind="stable")
            t_sorted = t if perm is None else t[perm]
            safe = np.where(has_src, src, 0)
            loc = np.minimum(np.searchsorted(t_sorted, safe), t.size - 1)
            found = has_src & (t_sorted[loc] == safe)
            rows = loc if perm is None else perm[loc]
        if bool((~found & has_src).any()):
            # Closed subsets (checked in __init__) keep every source
            # in-subset; a miss here would be an engine bug.
            raise SimulationError(
                f"{node.label()} communicates with a thread outside this "
                "core's subset"
            )
        src_pos = np.where(found, rows, np.int64(-1))
        if node.opcode is Opcode.ELDST:
            delta = abs(int(node.param("delta")))
            receives = (src_pos >= 0) & (t == src + delta)
        else:
            receives = src_pos >= 0
        return _InterthreadTable(src_pos=src_pos, receives=receives)

    # ------------------------------------------------------- event-order keys
    def _pure_load_ancestors(self) -> "set[int] | None":
        """Nodes to pre-evaluate so every load's issue cycle is known early.

        Delegates to the static analyzer's replay-order pass
        (:func:`repro.analyze.passes.pure_load_ancestors`) so the
        ``RA042``/``RA043`` verdict and the engine's dynamic decision
        agree by construction: the union of every LOAD node and its
        transitive ancestors when those ancestors are all pure/source
        nodes, or ``None`` when some load index depends on another memory
        access — the engine then falls back to per-node replay order.
        """
        from repro.analyze.passes import pure_load_ancestors

        return pure_load_ancestors(self.graph)

    def _event_order_keys(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-load-node key vectors reproducing the event engine's order.

        The event engine classifies a load at the heap-processing moment
        of its index token's arrival.  For a pure index chain that moment
        is ``d + inject(t)`` with a thread-independent ``d``, and
        same-cycle arrivals process in push-sequence order — recursively,
        the chain of the deciding producer's own fire moments, tie-broken
        by its push index within that fire, bottoming out at the
        injection event (which pops *after* same-cycle token events).

        Each node therefore gets a component vector: fire moments encoded
        as ``2*cycle + kind`` (token fire = 0, injection = 1) that shift
        by ``2*inject(t)`` per thread, interleaved with shift-free
        push-index components.  Sorting all of a wave's load accesses by
        these vectors (then node position, then thread position)
        reproduces the event engine's access order exactly.
        """
        arrival: dict[int, float] = {}
        chains: dict[int, list[tuple[float, bool]]] = {}
        keys: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for node in self._order:
            nid = node.node_id
            if node.opcode in _SOURCE_OPCODES:
                arrival[nid] = 0.0
                chains[nid] = [(1.0, True), (float(self._order_pos[nid]), False)]
                continue
            inputs = self._inputs[nid]
            if not inputs or any(src not in chains for _, src in inputs):
                continue  # downstream of a memory access: thread-varying
            best: "tuple[float, list[tuple[float, bool]], int] | None" = None
            arr = 0.0
            for port, src in inputs:
                src_node = self.graph.node(src)
                moment = (
                    arrival[src]
                    + unit_latency(self.config, src_node)
                    + self._edge_latency[(src, nid)]
                )
                arr = max(arr, moment)
                push_index = next(
                    i
                    for i, (dst, dst_port) in enumerate(self._successors[src])
                    if dst == nid and dst_port == port
                )
                candidate = (moment, chains[src], push_index)
                if best is None or candidate > best:
                    best = candidate
            chain = [(2.0 * arr, True)] + best[1] + [(float(best[2]), False)]
            if node.opcode in (Opcode.LOAD, Opcode.ELDST):
                components = np.array([value for value, _ in chain])
                moments = np.array([is_moment for _, is_moment in chain])
                keys[nid] = (components, moments)
            elif node.opcode in PURE_OPCODES:
                arrival[nid] = arr
                chains[nid] = chain
        return keys

    # ------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        if not self._sink_nodes:
            raise SimulationError("kernel has no store or output nodes; nothing to run")
        for node in self._order:
            if node.opcode is Opcode.OUTPUT:
                self.outputs.setdefault(str(node.param("name")), [None] * self.num_threads)

        begin = self._trace.clock() if self._trace is not None else 0.0
        self._run_wave()
        if self._trace is not None:
            self._trace.wall_event(
                "wave@0", begin, args={"threads": int(self._thread_ids.size)}
            )

        cycles = int(self._completion)
        if cycles > self.max_cycles:
            raise DeadlockError(
                f"simulation of '{self.graph.name}' exceeded {self.max_cycles} cycles"
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

    # ------------------------------------------------------------ wave driver
    def _run_wave(self) -> None:
        """Evaluate every node once over the core's thread-ID vector."""
        tids = self._thread_ids
        inject = self._inject
        n = tids.size
        if n == 0:
            return
        values: dict[int, np.ndarray] = {}
        avail: dict[int, np.ndarray] = {}
        uses = {nid: len(succ) for nid, succ in self._successors.items()}
        evaluated: set[int] = set()
        load_results: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if self._ordered_loads and self._load_nodes:
            self._classify_wave_loads(tids, inject, values, avail, evaluated, load_results)

        for node in self._order:
            nid = node.node_id
            if node.opcode in _SOURCE_OPCODES:
                if nid not in evaluated:
                    values[nid] = self._source_value(node, tids, n)
                    avail[nid] = inject
            else:
                inputs = self._inputs[nid]
                if nid in load_results:
                    # Classified in the pre-pass; read the data here, at the
                    # access's topological position (stores earlier in the
                    # graph must land in the backing array first).
                    issue, idx, complete, heads = load_results[nid]
                    if node.opcode is Opcode.ELDST:
                        values[nid], avail[nid] = self._eldst_resolve(
                            node, issue, idx, heads, complete
                        )
                    else:
                        backing = self.memory.array(str(node.param("array")))
                        values[nid] = _coerce_vec(backing[idx], node.dtype)
                        avail[nid] = complete
                    if self._trace is not None:
                        self._trace_node(node, issue, avail[nid])
                elif nid not in evaluated:
                    operands = [values[src] for _, src in inputs]
                    ready = inject
                    for _, src in inputs:
                        ready = np.maximum(ready, avail[src] + self._edge_latency[(src, nid)])
                    issue = self._issue(ready)
                    values[nid], avail[nid] = self._execute(node, tids, operands, issue)
                    if self._trace is not None:
                        self._trace_node(node, issue, avail[nid])
                for _, src in inputs:
                    uses[src] -= 1
                    if uses[src] == 0:
                        del values[src]
            if uses[nid] == 0:
                values.pop(nid, None)

    def _classify_wave_loads(
        self,
        tids: np.ndarray,
        inject: np.ndarray,
        values: dict[int, np.ndarray],
        avail: dict[int, np.ndarray],
        evaluated: set[int],
        load_results: dict[int, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Pre-pass: classify the wave's whole load stream in event order.

        Evaluates the pure index sub-DAG (each node exactly once — the
        main sweep reuses these values and never re-applies the issue
        queues), gathers every load's issue cycles and line addresses,
        sorts the combined stream with the precomputed event-order keys
        and replays it through the analytic cache model.  Load *data* is
        deliberately not read here; the main sweep reads it at the load's
        topological position.
        """
        n = tids.size
        tracer = self._trace
        prepass_begin = tracer.clock() if tracer is not None else 0.0
        pending: list[tuple] = []
        for node in self._order:
            nid = node.node_id
            if nid not in self._prepass_nodes:
                continue
            if node.opcode in _SOURCE_OPCODES:
                values[nid] = self._source_value(node, tids, n)
                avail[nid] = inject
                evaluated.add(nid)
                continue
            inputs = self._inputs[nid]
            operands = [values[src] for _, src in inputs]
            ready = inject
            for _, src in inputs:
                ready = np.maximum(ready, avail[src] + self._edge_latency[(src, nid)])
            issue = self._issue(ready)
            if node.opcode in (Opcode.LOAD, Opcode.ELDST):
                # ``valid`` masks the threads that really touch memory:
                # all of a LOAD's, only an eLDST's loading heads.
                spec = self.memory.spec(str(node.param("array")))
                if node.opcode is Opcode.ELDST:
                    valid, idx = self._eldst_heads(node, operands)
                else:
                    valid, idx = None, self._checked_indices(node, operands[0], spec.length)
                addresses = spec.base_address + idx * spec.elem_bytes
                pending.append((node, issue, idx, addresses, valid))
            else:
                values[nid], avail[nid] = self._execute(node, tids, operands, issue)
                if tracer is not None:
                    self._trace_node(node, issue, avail[nid])
            evaluated.add(nid)

        if tracer is not None:
            tracer.wall_event("prepass", prepass_begin, args={"loads": len(pending)})
        if not pending:
            return
        total = n * len(pending)
        issue_all = np.empty(total)
        address_all = np.empty(total, dtype=np.int64)
        valid_all = np.ones(total, dtype=np.bool_)
        for block, (node, issue, _, addresses, valid) in enumerate(pending):
            issue_all[block * n : (block + 1) * n] = issue
            address_all[block * n : (block + 1) * n] = addresses
            if valid is not None:
                valid_all[block * n : (block + 1) * n] = valid
        order = self._replay_order(
            [node.node_id for node, *_ in pending], inject, valid_all
        )
        completions = np.full(total, np.nan)
        walk_begin = tracer.clock() if tracer is not None else 0.0
        completions[order] = self._analytic.access_batch(
            address_all[order], issue_all[order], is_store=False
        )
        if tracer is not None:
            tracer.wall_event("tag walk", walk_begin, args={"accesses": int(order.size)})
            if order.size:
                ts = float(issue_all[order].min())
                done = completions[order]
                end = float(done[np.isfinite(done)].max()) if done.size else ts
                tracer.event(
                    "wave loads", "mem", ts, end - ts,
                    pid=self._trace_pid, tid=MEM_LANE,
                    args={"count": int(order.size)},
                )
        for block, (node, issue, idx, _, valid) in enumerate(pending):
            load_results[node.node_id] = (
                issue,
                idx,
                completions[block * n : (block + 1) * n],
                valid,
            )

    def _replay_order(
        self, nids: list[int], inject: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Event-order permutation of a wave's load stream.

        The stream holds one block of ``inject.size`` accesses per load
        node in ``nids``, in thread position order.  Accesses replay by
        their first key component ``first + 2*inject``, then by the load
        node's per-kernel rank (:func:`_load_ranks`), then by thread
        position; one int64 composite carries all three.  Each block of
        it increases with position, so the stable argsort merges
        ``len(nids)`` sorted runs.  Rows outside ``valid`` (eLDST: only
        the loading threads touch memory) drop out without perturbing
        the surviving rows' relative order.
        """
        n = inject.size
        first = np.array([self._load_keys[nid][0][0] for nid in nids], dtype=np.int64)
        rank = np.array([self._load_rank[nid] for nid in nids], dtype=np.int64)
        moment = first[:, None] + 2 * inject.astype(np.int64)
        composite = (moment * len(self._load_rank) + rank[:, None]) * n
        composite += np.arange(n, dtype=np.int64)
        composite = composite.ravel()
        if bool(valid.all()):
            return np.argsort(composite, kind="stable")
        sel = np.flatnonzero(valid)
        return sel[np.argsort(composite[sel], kind="stable")]

    def _source_value(self, node: Node, tids: np.ndarray, n: int) -> np.ndarray:
        op = node.opcode
        if op is Opcode.CONST:
            scalar = coerce(node.param("value"), node.dtype)
            return np.full(n, scalar, dtype=_NP_DTYPE[node.dtype])
        dx, dy, _ = (self.geometry.block_dim + (1, 1, 1))[:3]
        if op is Opcode.TID_X:
            return tids % dx
        if op is Opcode.TID_Y:
            return (tids // dx) % dy
        if op is Opcode.TID_Z:
            return tids // (dx * dy)
        return tids.copy()  # TID_LINEAR

    # ----------------------------------------------------------- issue ports
    def _issue(self, ready: np.ndarray) -> np.ndarray:
        """Deterministic multi-server queue over the node's issue ports.

        Firings are serviced in ready order, assigned round-robin to the
        ``replicas`` ports; each port retires one operation per cycle.
        ``t_k = max(r_k, t_{k-ports} + 1)`` has the closed form
        ``t_i = i + cummax(r_i - i)`` along each port stream.
        """
        ports = self._ports
        # Ready times of a pure chain are monotone in thread position
        # (inject order plus uniform latencies), so the sort is usually a
        # no-op; detect that with one cheap pass instead of an argsort.
        if ready.size < 2 or bool((ready[1:] >= ready[:-1]).all()):
            order = None
            r = ready
        else:
            order = np.argsort(ready, kind="stable")
            r = ready[order]
        issue_sorted = np.empty_like(r)
        for p in range(ports):
            seq = r[p::ports]
            if seq.size == 0:
                continue
            idx = np.arange(seq.size, dtype=np.float64)
            issue_sorted[p::ports] = idx + np.maximum.accumulate(seq - idx)
        if order is None:
            return issue_sorted
        issue = np.empty_like(r)
        issue[order] = issue_sorted
        return issue

    # -------------------------------------------------------------- execution
    def _execute(
        self, node: Node, tids: np.ndarray, operands: list[np.ndarray], issue: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        op = node.opcode
        latency = unit_latency(self.config, node)
        if op in PURE_OPCODES:
            return _eval_pure_vec(node, operands), issue + latency
        if op is Opcode.LOAD:
            value, complete = self._access_global(node, operands[0], issue, store_value=None)
            return value, complete
        if op is Opcode.STORE:
            value, complete = self._access_global(
                node, operands[0], issue, store_value=operands[1]
            )
            self._completion = max(self._completion, float(complete.max()))
            return value, complete
        if op is Opcode.SCRATCH_LOAD:
            value, complete = self._access_scratch(node, operands[0], issue, store_value=None)
            return value, complete
        if op is Opcode.SCRATCH_STORE:
            value, complete = self._access_scratch(
                node, operands[0], issue, store_value=operands[1]
            )
            self._completion = max(self._completion, float(complete.max()))
            return value, complete
        if op is Opcode.OUTPUT:
            name = str(node.param("name"))
            slot = self.outputs[name]
            for tid, value in zip(tids.tolist(), operands[0].tolist()):
                slot[tid] = value
            complete = issue + 1.0
            self._completion = max(self._completion, float(complete.max()))
            return operands[0], complete
        if op is Opcode.ELEVATOR:
            return self._execute_elevator_vec(node, operands, issue)
        if op is Opcode.ELDST:
            return self._execute_eldst_vec(node, operands, issue)
        if op is Opcode.BARRIER:
            return self._execute_barrier_vec(node, tids, operands, issue)
        raise SimulationError(f"batched engine cannot execute {op.value}")

    # ---------------------------------------------------------- inter-thread
    def _execute_elevator_vec(
        self, node: Node, operands: list[np.ndarray], issue: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every producer fires (consuming its issue port); consumers with
        a valid source gather its token, the rest get the fallback
        constant at their injection cycle (``_inject_thread``)."""
        table = self._it[node.node_id]
        valid = table.src_pos >= 0
        gather = np.where(valid, table.src_pos, 0)
        n = issue.size
        n_valid = int(valid.sum())
        latency = float(unit_latency(self.config, node))
        complete_valid = issue[gather] + latency
        if node.param("spilled"):
            # Producer writes the LVC, consumer reads it back.
            complete_valid = complete_valid + 2.0 * LVC_ACCESS_LATENCY
            self.stats.spilled_tokens += n_valid
            self.stats.lvc_accesses += 2 * n_valid
        const = coerce(node.param("const"), node.dtype)
        value = np.where(valid, operands[0][gather], const)
        avail = np.where(valid, complete_valid, self._inject + latency)
        self.stats.elevator_retags += n_valid
        self.stats.elevator_constants += n - n_valid
        if self._trace is not None and n:
            ts = float(issue.min())
            self._trace.event(
                f"{node.label()} retag", "interthread", ts, float(avail.max()) - ts,
                pid=self._trace_pid, tid=self._lane[node.node_id],
                args={"retags": n_valid, "constants": n - n_valid},
            )
        return value, avail

    def _execute_eldst_vec(
        self, node: Node, operands: list[np.ndarray], issue: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fallback path (replay order not event-stable): classify the
        heads' loads here, in issue order, then resolve the chain."""
        heads, idx = self._eldst_heads(node, operands)
        spec = self.memory.spec(str(node.param("array")))
        addresses = spec.base_address + idx * spec.elem_bytes
        head_rows = np.flatnonzero(heads)
        order = head_rows[
            np.lexsort((np.arange(head_rows.size), issue[head_rows]))
        ]
        load_complete = np.full(issue.size, np.nan)
        walk_begin = self._trace.clock() if self._trace is not None else 0.0
        load_complete[order] = self._analytic.access_batch(
            addresses[order], issue[order], is_store=False
        )
        if self._trace is not None:
            self._trace.wall_event(
                "tag walk", walk_begin, args={"accesses": int(order.size)}
            )
            if order.size:
                ts = float(issue[order].min())
                done = load_complete[order]
                end = float(done[np.isfinite(done)].max()) if done.size else ts
                self._trace.event(
                    f"eldst loads {node.param('array')}", "mem", ts, end - ts,
                    pid=self._trace_pid, tid=MEM_LANE,
                    args={"count": int(order.size)},
                )
        return self._eldst_resolve(node, issue, idx, heads, load_complete)

    def _eldst_heads(
        self, node: Node, operands: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Loading-head mask and (bounds-checked, head-only) indices."""
        table = self._it[node.node_id]
        predicate = operands[1].astype(np.bool_, copy=False)
        heads = predicate | (table.src_pos < 0)
        spec = self.memory.spec(str(node.param("array")))
        idx = _coerce_vec(operands[0], DType.I32)
        # Only the heads' indices reach memory; the event engine never
        # evaluates a forwarded thread's index, so neither may we.
        idx = np.where(heads, idx, np.int64(0))
        self._checked_indices(node, idx, spec.length)
        return heads, idx

    def _eldst_resolve(
        self,
        node: Node,
        issue: np.ndarray,
        idx: np.ndarray,
        heads: np.ndarray,
        load_complete: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve values and timing over the static forwarding chains.

        Timing follows the event engine exactly: a head completes at its
        memory load's completion plus the eLDST completion latency ``L``
        (issue latency plus spill/external-buffer extra); a forwarded
        thread at ``complete[t] = max(issue[t], complete[src]) + L``.
        :func:`_forward_chains` evaluates that recurrence by pointer
        doubling, and every row's value is a gather from its head's load.
        """
        table = self._it[node.node_id]
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

        waiting = ~heads & ~table.receives
        if bool(waiting.any()):
            tid = int(self._thread_ids[np.argmax(waiting)])
            raise DeadlockError(
                f"kernel '{self.graph.name}' deadlocked: thread {tid} waits "
                f"forever for a value {node.label()} never forwards to it"
            )

        # Heads depend on nobody for timing or data, whatever their
        # position in the forwarding chain.
        fwd_begin = self._trace.clock() if self._trace is not None else 0.0
        resolved = _forward_chains(
            table.src_pos, heads, load_complete, issue, latency
        )
        if resolved is None:  # pragma: no cover - window_batch_problem rejects recurrences
            raise DeadlockError(
                f"{node.label()} forwarding chain does not terminate"
            )
        head, complete, depth = resolved
        if depth > 0 and self._trace is not None:
            self._trace.wall_event(
                "forwarding levels", fwd_begin, args={"depth": depth}
            )
        backing = self.memory.array(str(node.param("array")))
        value = _coerce_vec(backing[idx[head]], node.dtype)

        n_heads = int(heads.sum())
        n_forwards = int(table.receives.sum())
        self.stats.global_loads += n_heads
        self.stats.eldst_memory_loads += n_heads
        self.stats.eldst_forwards += n_forwards
        if self._trace is not None and n:
            ts = float(issue.min())
            self._trace.event(
                f"{node.label()} forward", "interthread", ts, float(complete.max()) - ts,
                pid=self._trace_pid, tid=self._lane[node.node_id],
                args={"heads": n_heads, "forwards": n_forwards, "depth": depth},
            )
        return value, complete

    def _execute_barrier_vec(
        self, node: Node, tids: np.ndarray, operands: list[np.ndarray], issue: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented-max release per transmission window group."""
        window = int(node.param("window"))
        groups = tids // window
        unique, inverse = np.unique(groups, return_inverse=True)
        release = np.full(unique.size, -np.inf)
        np.maximum.at(release, inverse, issue)
        release += float(self.config.latency.control)
        per_thread = release[inverse]
        n = issue.size
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
                    pid=self._trace_pid, tid=self._lane[node.node_id],
                    args={"group": int(unique[g]), "count": int(counts[g])},
                )
        return operands[0], per_thread + float(LVC_ACCESS_LATENCY)

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

    def _access_global(
        self,
        node: Node,
        index: np.ndarray,
        issue: np.ndarray,
        store_value: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stores (and loads in fallback mode): classify at the node's
        topological position, replaying the node's accesses in issue order
        (the order the event engine's heap services them when the phases
        do not overlap)."""
        name = str(node.param("array"))
        spec = self.memory.spec(name)
        backing = self.memory.array(name)
        idx = self._checked_indices(node, index, spec.length)
        addresses = spec.base_address + idx * spec.elem_bytes
        order = np.lexsort((np.arange(idx.size), issue))
        complete = np.empty(issue.shape)
        complete[order] = self._analytic.access_batch(
            addresses[order], issue[order], is_store=store_value is not None
        )
        if self._trace is not None and idx.size:
            ts = float(issue.min())
            self._trace.event(
                f"{'store' if store_value is not None else 'load'} {name}", "mem",
                ts, float(complete.max()) - ts,
                pid=self._trace_pid, tid=MEM_LANE, args={"count": int(idx.size)},
            )
        if store_value is None:
            return _coerce_vec(backing[idx], node.dtype), complete
        backing[idx] = store_value
        return store_value, complete

    def _access_scratch(
        self,
        node: Node,
        index: np.ndarray,
        issue: np.ndarray,
        store_value: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        name = str(node.param("array"))
        spec = self.memory.spec(name)
        backing = self.memory.array(name)
        idx = self._checked_indices(node, index, spec.length)
        complete = issue + float(self.config.memory.scratchpad.access_latency)
        if self._trace is not None and idx.size:
            ts = float(issue.min())
            self._trace.event(
                f"{'scratch store' if store_value is not None else 'scratch load'} {name}",
                "scratch", ts, float(complete.max()) - ts,
                pid=self._trace_pid, tid=MEM_LANE, args={"count": int(idx.size)},
            )
        scratch = self.hierarchy.scratchpad.stats
        if store_value is None:
            scratch.reads += idx.size
            return _coerce_vec(backing[idx], node.dtype), complete
        scratch.writes += idx.size
        backing[idx] = store_value
        return store_value, complete

    # ------------------------------------------------------------- counters
    def _accumulate_counters(self) -> None:
        """Token, NoC and functional-unit counters.

        Every node fires exactly once per thread, so each counter is a
        per-graph constant times the thread count — equal to what the
        event engine accumulates one token at a time (the inter-thread
        handlers count their own traffic).
        """
        n = int(self._thread_ids.size)
        stats = self.stats
        for node in self._order:
            nid = node.node_id
            succ = self._successors[nid]
            stats.tokens_sent += len(succ) * n
            for dst, _ in succ:
                stats.noc_hops += self._edge_hops[(nid, dst)] * n
            if node.opcode in _SOURCE_OPCODES:
                continue
            stats.token_buffer_inserts += len(self._inputs[nid]) * n
            stats.token_buffer_matches += n
            cls = node.unit_class
            if cls is UnitClass.ALU:
                stats.alu_ops += n
            elif cls is UnitClass.FPU:
                stats.fpu_ops += n
            elif cls is UnitClass.SPECIAL:
                stats.special_ops += n
            elif cls is UnitClass.CONTROL:
                stats.control_ops += n
            elif cls is UnitClass.SPLIT_JOIN:
                stats.split_join_ops += n
            if node.opcode is Opcode.LOAD:
                stats.global_loads += n
            elif node.opcode is Opcode.STORE:
                stats.global_stores += n
            elif node.opcode is Opcode.SCRATCH_LOAD:
                stats.scratch_loads += n
            elif node.opcode is Opcode.SCRATCH_STORE:
                stats.scratch_stores += n
