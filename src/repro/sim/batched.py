"""Wave-batched NumPy execution engine for inter-thread-free kernels.

The event-driven :class:`~repro.sim.cycle.CycleSimulator` schedules one
heap event per token per edge, which is exact but costs minutes per
configuration on the Figure 11/12 problem sizes.  The dMT-CGRA execution
model is thread-parallel — the same static graph is traversed by
thousands of tagged threads — so for graphs *without* inter-thread
dependences (no ELEVATOR/ELDST/BARRIER nodes, see
:meth:`DataflowGraph.has_interthread`) every thread's walk through the
graph is independent and each static node can be evaluated once per
injection wave over a NumPy vector of thread IDs, the way the ESL-CGRA
simulator steps whole-array state per cycle instead of per token.

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
writebacks, MSHR merges and DRAM bank queueing.  The L2 is the
hierarchy's own :class:`~repro.memory.cache.SetAssociativeCache`, the
event engine's cache, and the L1 classifies on the same
:mod:`repro.memory.tagcore` tag/set/victim core.  Because LRU
classification depends on the order in which the line-address stream
reaches the cache, each wave's loads are replayed in the *event
engine's* processing order: the order a token arrival fires a load is
a thread-independent property of the graph (the arrival-cycle chain
through its pure index computation, tie-broken by the heap's push
sequence), so the engine precomputes one order key per load node and
sorts the whole wave's load stream with ``np.lexsort`` before running
it through the tag model.  Stores are replayed after the
loads of their wave, in issue order — exact whenever the store phase
drains after the load phase (it does on the streaming workloads at the
fidelity-gate sizes) and a close approximation when the phases overlap.
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

Outputs and memory contents are bit-identical to the event engine and
all operation counters (``alu_ops``, ``fpu_ops``, ``global_loads``,
``global_stores``, token/NoC counters, ...) are equal by construction;
the cycle count and memory-hierarchy counters are analytic — exact on
order-stable traces, estimates otherwise.
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
from repro.graph.node import Node
from repro.graph.opcodes import DType, Opcode, UnitClass
from repro.graph.semantics import PURE_OPCODES, coerce
from repro.kernel.geometry import ThreadGeometry
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.obs.trace import MEM_LANE, active_tracer
from repro.sim.analytic_cache import AnalyticMemoryModel
from repro.sim.cycle import edge_timing, unit_latency, validate_thread_ids
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


class BatchedSimulator:
    """Wave-batched vectorised model of one (d)MT-CGRA core.

    Only graphs without inter-thread dependences are supported;
    :func:`repro.sim.simulate` falls back to a capable engine
    automatically.
    """

    #: Engine name recorded in ``stats.extra["engine"]`` and the result.
    engine = "batched"

    def __init__(
        self,
        compiled: CompiledKernel,
        launch: KernelLaunch,
        hierarchy: MemoryHierarchy | None = None,
        max_cycles: int = 20_000_000,
        wave_group: int = 1 << 14,
        thread_ids: Sequence[int] | None = None,
        memory: MemoryImage | None = None,
        dram_contention: int = 1,
        trace_pid: int = 0,
    ) -> None:
        if compiled.graph.metadata.get("num_threads") != launch.graph.metadata.get(
            "num_threads"
        ):
            raise SimulationError("compiled kernel and launch disagree on thread count")
        self._reject_unsupported(compiled)
        if wave_group < 1:
            raise SimulationError("wave_group must be positive")
        self.compiled = compiled
        self.config: SystemConfig = compiled.config
        self.graph: DataflowGraph = compiled.graph
        self.launch = launch
        self.geometry: ThreadGeometry = ThreadGeometry(compiled.block_dim)
        self.num_threads = self.geometry.num_threads
        self.max_cycles = max_cycles
        self.wave_group = int(wave_group)

        if thread_ids is None:
            self._thread_ids = np.arange(self.num_threads, dtype=np.int64)
        else:
            self._thread_ids = np.asarray(
                validate_thread_ids(thread_ids, self.num_threads), dtype=np.int64
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
        # Issue-queue tail per node: the last issue cycle of each port
        # stream, carried across wave groups.
        self._port_tail: dict[int, np.ndarray] = {
            node.node_id: np.full(self._ports, -np.inf) for node in self._order
        }
        # Memory model: a vectorised L1 over the hierarchy's own L2 (the
        # event engine's cache, so a sharded core sees its L2 slice) and
        # an analytic DRAM, counting into the hierarchy's stats.  When
        # ``dram_contention`` cores share the DRAM device, each access
        # additionally expects to queue behind one bank burst per contending
        # core (the analytic twin of the shared bank state the event engine
        # models exactly).
        if dram_contention < 1:
            raise SimulationError("dram_contention must be >= 1")
        self._analytic = AnalyticMemoryModel(self.hierarchy, dram_contention=dram_contention)
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

    def _reject_unsupported(self, compiled: CompiledKernel) -> None:
        """Graph-eligibility check; the window-batched subclass relaxes it."""
        if compiled.graph.has_interthread():
            raise SimulationError(
                "the batched engine requires an inter-thread-free graph "
                "(no ELEVATOR/ELDST/BARRIER nodes); use engine='auto' "
                "to dispatch communicating kernels automatically"
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
        # classify: plain LOADs plus (window-batched engine) the loading
        # threads of eLDST nodes.
        self._load_nodes = [
            n for n in self._order if n.opcode in (Opcode.LOAD, Opcode.ELDST)
        ]
        prepass_nodes = self._pure_load_ancestors()
        ordered_loads = prepass_nodes is not None
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
            load_keys=self._event_order_keys() if ordered_loads else {},
        )

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

        for start in range(0, self._thread_ids.size, self.wave_group):
            tids = self._thread_ids[start : start + self.wave_group]
            if self._trace is None:
                self._run_wave(tids, start)
            else:
                begin = self._trace.clock()
                self._run_wave(tids, start)
                self._trace.wall_event(
                    f"wave@{start}", begin, args={"threads": int(tids.size)}
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
    def _run_wave(self, tids: np.ndarray, offset: int) -> None:
        """Evaluate every node once over the wave's thread-ID vector."""
        n = tids.size
        if n == 0:
            return
        replicas = self._ports
        inject = ((offset + np.arange(n, dtype=np.int64)) // replicas).astype(np.float64)
        # Kept for node executors that need injection cycles directly
        # (the window-batched engine's elevator fallback constants).
        self._wave_inject = inject

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
                    values[nid], avail[nid] = self._finish_prepassed(
                        node, load_results[nid]
                    )
                    if self._trace is not None:
                        self._trace_node(node, load_results[nid][0], avail[nid])
                elif nid not in evaluated:
                    operands = [values[src] for _, src in inputs]
                    ready = inject
                    for _, src in inputs:
                        ready = np.maximum(ready, avail[src] + self._edge_latency[(src, nid)])
                    issue = self._issue(nid, ready)
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
            issue = self._issue(nid, ready)
            entry = self._prepass_access(node, operands, issue)
            if entry is not None:
                pending.append(entry)
            else:
                values[nid], avail[nid] = self._execute(node, tids, operands, issue)
                if tracer is not None:
                    self._trace_node(node, issue, avail[nid])
            evaluated.add(nid)

        if tracer is not None:
            tracer.wall_event("prepass", prepass_begin, args={"loads": len(pending)})
        if not pending:
            return
        # The order key of an access is fully determined by its (load
        # node, inject cycle) pair — the moment components shift by
        # ``2 * inject`` and everything else is per-node constant — and
        # a wave has only ``len(pending) * n_injects`` distinct pairs
        # against ``len(pending) * n`` accesses (``replicas`` threads
        # share each inject cycle).  So rank the distinct pairs with a
        # small lexsort over their component matrix and sort the whole
        # wave by one composite integer: pair rank, tie-broken by thread
        # position exactly like the previous full-width per-access sort.
        # ``valid`` masks (eLDST: only the loading threads touch memory)
        # drop masked rows from the replayed stream without perturbing
        # the surviving rows' relative order.
        depth = max(self._load_keys[node.node_id][0].size for node, *_ in pending)
        total = n * len(pending)
        inject_ids = (inject - inject[0]).astype(np.int64)
        n_injects = int(inject_ids[-1]) + 1
        shifts = 2.0 * (inject[0] + np.arange(n_injects, dtype=np.float64))
        pairs = len(pending) * n_injects
        pair_columns = np.full((depth, pairs), -1.0)
        pair_node = np.empty(pairs)
        issue_all = np.empty(total)
        address_all = np.empty(total, dtype=np.int64)
        valid_all = np.ones(total, dtype=np.bool_)
        for block, (node, issue, _, addresses, valid) in enumerate(pending):
            nid = node.node_id
            rows = slice(block * n_injects, (block + 1) * n_injects)
            components, moments = self._load_keys[nid]
            for j in range(components.size):
                if moments[j]:
                    pair_columns[j, rows] = components[j] + shifts
                else:
                    pair_columns[j, rows] = components[j]
            pair_node[rows] = float(self._order_pos[nid])
            issue_all[block * n : (block + 1) * n] = issue
            address_all[block * n : (block + 1) * n] = addresses
            if valid is not None:
                valid_all[block * n : (block + 1) * n] = valid
        pair_order = np.lexsort(tuple([pair_node] + list(pair_columns[::-1])))
        pair_rank = np.empty(pairs, dtype=np.int64)
        pair_rank[pair_order] = np.arange(pairs)
        block_base = np.repeat(
            np.arange(len(pending), dtype=np.int64) * n_injects, n
        )
        composite = pair_rank[block_base + np.tile(inject_ids, len(pending))] * n
        composite += np.tile(np.arange(n, dtype=np.int64), len(pending))
        if bool(valid_all.all()):
            order = np.argsort(composite)
        else:
            sel = np.flatnonzero(valid_all)
            order = sel[np.argsort(composite[sel])]
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

    def _prepass_access(
        self, node: Node, operands: list[np.ndarray], issue: np.ndarray
    ):
        """One prepass entry ``(node, issue, idx, addresses, valid)`` for a
        memory issue point, or ``None`` to evaluate the node inline.
        ``valid`` masks the threads that really touch memory (``None`` =
        all; the window-batched engine masks eLDST to its loading
        threads)."""
        if node.opcode is not Opcode.LOAD:
            return None
        spec = self.memory.spec(str(node.param("array")))
        idx = self._checked_indices(node, operands[0], spec.length)
        addresses = spec.base_address + idx * spec.elem_bytes
        return (node, issue, idx, addresses, None)

    def _finish_prepassed(
        self, node: Node, entry: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        """Materialise a prepass-classified access at its topological slot."""
        _, idx, complete, _ = entry
        backing = self.memory.array(str(node.param("array")))
        return _coerce_vec(backing[idx], node.dtype), complete

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
    def _issue(self, nid: int, ready: np.ndarray) -> np.ndarray:
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
        tail = self._port_tail[nid]
        for p in range(ports):
            seq = r[p::ports]
            if seq.size == 0:
                continue
            idx = np.arange(seq.size, dtype=np.float64)
            t = idx + np.maximum.accumulate(seq - idx)
            t = np.maximum(t, tail[p] + 1.0 + idx)
            issue_sorted[p::ports] = t
            tail[p] = t[-1]
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
        raise SimulationError(f"batched engine cannot execute {op.value}")

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

        Every node fires exactly once per thread (there are no boundary
        cases without inter-thread nodes), so each counter is a per-graph
        constant times the thread count — by construction equal to what
        the event engine accumulates one token at a time.
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
