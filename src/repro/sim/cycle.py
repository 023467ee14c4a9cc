"""Cycle-level simulator of the (d)MT-CGRA core.

The simulator executes a compiled kernel under the dynamic tagged-token
dataflow model of Sec. 3:

* the configured graph is shared by all threads; every value travelling
  through the fabric is tagged with its thread ID;
* threads are streamed into the array (``replicas`` threads per cycle,
  the paper's "a new thread can thus be injected into the computational
  fabric on every cycle");
* a node fires once all of a thread's operands have arrived (the dataflow
  firing rule), subject to the node's issue port being free;
* results travel over the statically-routed NoC to their consumers, paying
  one cycle per hop of the mapped route;
* load/store (and eLDST) nodes access the shared L1/L2/DRAM hierarchy and
  the scratchpad, whose bank and latency models provide the memory
  back-pressure that differentiates the three architectures;
* elevator nodes retag tokens to implement ``fromThreadOrConst``; eLDST
  units forward loaded values to later threads (``fromThreadOrMem``);
  spilled transfers go through the Live Value Cache instead;
* barrier nodes (used only by the plain MT-CGRA baseline) park per-thread
  state in the Live Value Cache and release it when the last thread of the
  block arrives.

The result carries both the timing (total cycles, per-class activity,
memory-system counters) and the functional outputs, which tests compare
against the functional interpreter and the NumPy references.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.arch.lvc import LiveValueCache
from repro.compiler.pipeline import CompiledKernel
from repro.config.system import SystemConfig
from repro.errors import DeadlockError, SimulationError
from repro.graph.dfg import DataflowGraph
from repro.graph.interthread import (
    eldst_source,
    elevator_destination,
    elevator_source,
    thread_subset_problem,
    window_batch_problem,
)
from repro.graph.node import Node
from repro.graph.opcodes import Opcode, UnitClass
from repro.graph.semantics import PURE_OPCODES, coerce, evaluate_pure
from repro.kernel.geometry import ThreadGeometry
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.memory.request import AccessType
from repro.obs.trace import INJECT_LANE, active_tracer
from repro.sim.launch import KernelLaunch
from repro.sim.stats import ExecutionStats

__all__ = [
    "CycleResult",
    "CycleSimulator",
    "ENGINES",
    "build_simulator",
    "edge_timing",
    "resolve_engine",
    "run_cycle_accurate",
    "unit_latency",
]


@dataclass
class CycleResult:
    """Outcome of a cycle-level run."""

    cycles: int
    stats: ExecutionStats
    memory: MemoryImage
    outputs: dict[str, list[Any]]
    hierarchy: MemoryHierarchy

    def array(self, name: str) -> np.ndarray:
        return self.memory.array(name)

    def output(self, name: str) -> list[Any]:
        return self.outputs[name]

    def counters(self) -> dict[str, int | float]:
        """Execution counters merged with the memory-hierarchy counters."""
        merged = dict(self.stats.as_dict())
        merged.update(self.hierarchy.stats().flat())
        return merged


# Event kinds, ordered so simultaneous events process deterministically.
_EV_TOKEN = 0
_EV_FORWARD = 1
_EV_INJECT = 2


def edge_timing(
    compiled: CompiledKernel,
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Per-edge ``(latency, hops)`` maps shared by both engines.

    Token transfer latency is the NoC injection latency plus one
    ``hop_latency`` per mapped hop, clamped to at least one cycle; the
    hop count itself is what ``noc_hops`` accounting uses.  Keeping this
    in one place is part of the engines' equivalence contract.
    """
    noc = compiled.config.noc
    latency: dict[tuple[int, int], int] = {}
    hops_of: dict[tuple[int, int], int] = {}
    for edge in compiled.graph.edges():
        hops = compiled.edge_hops(edge.src, edge.dst)
        latency[(edge.src, edge.dst)] = max(1, noc.injection_latency + hops * noc.hop_latency)
        hops_of[(edge.src, edge.dst)] = hops
    return latency, hops_of


def unit_latency(config: SystemConfig, node: Node) -> int:
    """Pipeline latency of the functional unit that hosts ``node``."""
    lat = config.latency
    table = {
        UnitClass.ALU: lat.alu,
        UnitClass.FPU: lat.fpu,
        UnitClass.SPECIAL: lat.special,
        UnitClass.CONTROL: lat.control,
        UnitClass.SPLIT_JOIN: lat.split_join,
        UnitClass.ELEVATOR: lat.elevator,
        UnitClass.BARRIER: lat.control,
        UnitClass.LDST: lat.ldst_issue,
        UnitClass.ELDST: lat.ldst_issue,
        UnitClass.SINK: 1,
        UnitClass.SOURCE: 0,
    }
    return table[node.unit_class]


@dataclass
class _NodeState:
    """Mutable per-node simulation state."""

    node: Node
    arity: int
    latency: int
    port_free_at: list[int] = field(default_factory=list)
    pending: dict[int, dict[int, Any]] = field(default_factory=dict)
    # eLDST-specific: forwarded values waiting for their consumer thread and
    # consumer threads waiting for their forwarded value.
    forwards_ready: dict[int, tuple[Any, int]] = field(default_factory=dict)
    waiting_consumers: dict[int, tuple[int, Any]] = field(default_factory=dict)
    # Barrier-specific: arrivals and expected arrival counts, grouped by
    # barrier window (group ``-1`` means "every thread this core runs").
    barrier_arrived: dict[int, dict[int, tuple[int, Any]]] = field(default_factory=dict)
    barrier_expected: dict[int, int] = field(default_factory=dict)
    executions: int = 0


class CycleSimulator:
    """Event-driven, cycle-level model of one (d)MT-CGRA core."""

    def __init__(
        self,
        compiled: CompiledKernel,
        launch: KernelLaunch,
        hierarchy: MemoryHierarchy | None = None,
        max_cycles: int = 20_000_000,
        thread_ids: "Sequence[int] | None" = None,
        memory: MemoryImage | None = None,
        trace_pid: int = 0,
    ) -> None:
        if compiled.graph.metadata.get("num_threads") != launch.graph.metadata.get(
            "num_threads"
        ):
            raise SimulationError("compiled kernel and launch disagree on thread count")
        self.compiled = compiled
        self.config: SystemConfig = compiled.config
        self.graph: DataflowGraph = compiled.graph
        self.launch = launch
        self.geometry: ThreadGeometry = ThreadGeometry(compiled.block_dim)
        self.num_threads = self.geometry.num_threads
        self.max_cycles = max_cycles
        # The subset of threads this core executes (multi-core sharding).
        # Inter-thread communication cannot cross cores, so a subset is only
        # legal when it is closed under the graph's communication: a union
        # of whole transmission windows (ELEVATOR/ELDST and windowed
        # BARRIER nodes), with un-windowed barriers degrading to per-subset
        # barriers only for scratchpad-free graphs.
        if thread_ids is None:
            self._thread_ids = list(range(self.num_threads))
        else:
            self._thread_ids = [int(t) for t in thread_ids]
            if self._thread_ids and (
                min(self._thread_ids) < 0 or max(self._thread_ids) >= self.num_threads
            ):
                raise SimulationError("thread_ids outside the launch geometry")
            if len(self._thread_ids) != self.num_threads and self.graph.has_interthread():
                problem = thread_subset_problem(
                    self.graph, self._thread_ids, self.num_threads
                )
                if problem is not None:
                    raise SimulationError(
                        f"cannot simulate this thread subset of '{self.graph.name}': "
                        f"{problem}"
                    )

        self.memory = memory if memory is not None else launch.build_memory_image()
        self.hierarchy = hierarchy or MemoryHierarchy(self.config.memory)
        self.lvc = LiveValueCache()
        self.stats = ExecutionStats(threads=len(self._thread_ids))
        self.outputs: dict[str, list[Any]] = {}

        self._events: list[tuple[int, int, int, tuple]] = []
        self._sequence = itertools.count()
        self._nodes: dict[int, _NodeState] = {}
        self._successors: dict[int, list[tuple[int, int]]] = {}
        self._edge_latency: dict[tuple[int, int], int] = {}
        self._edge_hops: dict[tuple[int, int], int] = {}
        self._sink_nodes: list[int] = []
        self._sink_done: dict[int, int] = {}
        self._retired = 0
        self._completion_cycle = 0

        # Observability: the ambient tracer is bound once here; every hot
        # path guards its hook with one `is not None` branch, so tracing
        # off costs a pointer comparison per event and nothing else.
        self._trace = active_tracer()
        self._trace_pid = int(trace_pid)
        self._lane: dict[int, int] = {}

        self._prepare()
        if self._trace is not None:
            self._init_trace_lanes()

    # ------------------------------------------------------------------ setup
    def _latency_of(self, node: Node) -> int:
        return unit_latency(self.config, node)

    def _prepare(self) -> None:
        replicas = self.compiled.replicas
        self._successors = self.graph.successor_map()
        for node in self.graph.nodes:
            state = _NodeState(
                node=node,
                arity=self.graph.arity_of(node.node_id),
                latency=self._latency_of(node),
                port_free_at=[0] * max(1, replicas),
            )
            self._nodes[node.node_id] = state
            if node.opcode is Opcode.BARRIER:
                window = node.param("window")
                for tid in self._thread_ids:
                    group = tid // int(window) if window else -1
                    state.barrier_expected[group] = state.barrier_expected.get(group, 0) + 1
            if node.opcode in (Opcode.STORE, Opcode.SCRATCH_STORE, Opcode.OUTPUT):
                self._sink_nodes.append(node.node_id)
            if node.opcode is Opcode.OUTPUT:
                self.outputs.setdefault(
                    str(node.param("name")), [None] * self.num_threads
                )
        self._edge_latency, self._edge_hops = edge_timing(self.compiled)
        self._sink_done = {tid: 0 for tid in self._thread_ids}

    def _init_trace_lanes(self) -> None:
        """One trace lane per node, named after its hosting physical PE."""
        tracer = self._trace
        assert tracer is not None
        placement = (
            self.compiled.mapping.placement.node_to_unit if self.compiled.mapping else {}
        )
        tracer.set_process_name(self._trace_pid, f"core {self._trace_pid}")
        for node in self.graph.nodes:
            lane = int(placement.get(node.node_id, node.node_id))
            self._lane[node.node_id] = lane
            tracer.set_lane_name(self._trace_pid, lane, f"PE {lane}")

    # ------------------------------------------------------------------ events
    def _push(self, cycle: int, kind: int, payload: tuple) -> None:
        heapq.heappush(self._events, (cycle, kind, next(self._sequence), payload))

    def _send_to_successors(self, node_id: int, tid: int, value: Any, cycle: int) -> None:
        for dst, port in self._successors[node_id]:
            latency = self._edge_latency[(node_id, dst)]
            self.stats.tokens_sent += 1
            # One token traverses the mapped route exactly once; hops come
            # from the routed mapping, not from the clamped edge latency.
            self.stats.noc_hops += self._edge_hops[(node_id, dst)]
            self._push(cycle + latency, _EV_TOKEN, (dst, port, tid, value))

    # ------------------------------------------------------------------- run
    def run(self) -> CycleResult:
        self._schedule_injection()
        total_sinks = len(self._sink_nodes)
        if total_sinks == 0:
            raise SimulationError("kernel has no store or output nodes; nothing to run")

        while self._events:
            cycle, kind, _, payload = heapq.heappop(self._events)
            if cycle > self.max_cycles:
                raise DeadlockError(
                    f"simulation of '{self.graph.name}' exceeded {self.max_cycles} cycles"
                )
            if kind == _EV_INJECT:
                self._inject_thread(payload[0], cycle)
            elif kind == _EV_TOKEN:
                self._token_arrival(payload[0], payload[1], payload[2], payload[3], cycle)
            elif kind == _EV_FORWARD:
                self._forward_ready(payload[0], payload[1], payload[2], cycle)

        if self._retired != len(self._thread_ids):
            missing = [t for t, done in self._sink_done.items() if done < total_sinks]
            raise DeadlockError(
                f"kernel '{self.graph.name}' deadlocked: {len(missing)} thread(s) never "
                f"retired (e.g. thread {missing[0]})"
            )

        self.stats.cycles = self._completion_cycle
        # Provenance: cached counter rows must be able to tell which engine
        # (and how many cores — overwritten by the multi-core merge) made them.
        self.stats.extra["engine"] = "event"
        self.stats.extra.setdefault("cores", 1)
        return CycleResult(
            cycles=self._completion_cycle,
            stats=self.stats,
            memory=self.memory,
            outputs=self.outputs,
            hierarchy=self.hierarchy,
        )

    # --------------------------------------------------------------- injection
    def _schedule_injection(self) -> None:
        replicas = max(1, self.compiled.replicas)
        for position, tid in enumerate(self._thread_ids):
            self._push(position // replicas, _EV_INJECT, (tid,))

    def _inject_thread(self, tid: int, cycle: int) -> None:
        if self._trace is not None:
            self._trace.instant(
                "inject", "inject", cycle, pid=self._trace_pid, tid=INJECT_LANE,
                args={"tid": tid},
            )
        for node_id, state in self._nodes.items():
            node = state.node
            if node.opcode is Opcode.CONST:
                self._send_to_successors(
                    node_id, tid, coerce(node.param("value"), node.dtype), cycle
                )
            elif node.opcode in (
                Opcode.TID_X,
                Opcode.TID_Y,
                Opcode.TID_Z,
                Opcode.TID_LINEAR,
            ):
                x, y, z = self.geometry.unlinearize(tid)
                value = {
                    Opcode.TID_X: x,
                    Opcode.TID_Y: y,
                    Opcode.TID_Z: z,
                    Opcode.TID_LINEAR: tid,
                }[node.opcode]
                self._send_to_successors(node_id, tid, value, cycle)
            elif node.opcode is Opcode.ELEVATOR:
                # Threads without a valid producer receive the fallback
                # constant, generated when their slot is injected (Fig. 4).
                src = elevator_source(node, tid, self.geometry.block_dim, self.num_threads)
                if src is None:
                    self.stats.elevator_constants += 1
                    if self._trace is not None:
                        self._trace.instant(
                            f"{node.label()} const", "interthread", cycle,
                            pid=self._trace_pid, tid=self._lane[node_id],
                            args={"tid": tid},
                        )
                    self._send_to_successors(
                        node_id,
                        tid,
                        coerce(node.param("const"), node.dtype),
                        cycle + state.latency,
                    )

    # ----------------------------------------------------------- token arrival
    def _token_arrival(self, node_id: int, port: int, tid: int, value: Any, cycle: int) -> None:
        state = self._nodes[node_id]
        self.stats.token_buffer_inserts += 1
        if self._trace is not None:
            self._trace.instant(
                "token", "token", cycle, pid=self._trace_pid,
                tid=self._lane[node_id], args={"tid": tid, "port": port},
            )
        slot = state.pending.setdefault(tid, {})
        if port in slot:
            raise SimulationError(
                f"duplicate operand {port} for thread {tid} at {state.node.label()}"
            )
        slot[port] = value
        if len(slot) >= state.arity:
            del state.pending[tid]
            self.stats.token_buffer_matches += 1
            operands = [slot[p] for p in sorted(slot)]
            self._fire(state, tid, operands, cycle)

    def _issue_cycle(self, state: _NodeState, ready_cycle: int) -> int:
        """Account for the node's issue port (one op per cycle per replica).

        Bookkeeping is kept in whole cycles so the issue cycle is exact;
        the previous float bookkeeping truncated through ``int(start)``.
        """
        port_index = min(range(len(state.port_free_at)), key=state.port_free_at.__getitem__)
        start = max(int(ready_cycle), state.port_free_at[port_index])
        state.port_free_at[port_index] = start + 1
        return start

    # -------------------------------------------------------------------- fire
    def _fire(self, state: _NodeState, tid: int, operands: list[Any], cycle: int) -> None:
        node = state.node
        op = node.opcode
        issue = self._issue_cycle(state, cycle)
        state.executions += 1
        self._count_unit_op(node)
        if self._trace is not None:
            self._trace.event(
                node.label(), "op", issue, max(1, state.latency),
                pid=self._trace_pid, tid=self._lane[node.node_id],
                args={"tid": tid, "cls": node.unit_class.name},
            )

        if op in PURE_OPCODES:
            value = evaluate_pure(node, operands)
            self._send_to_successors(node.node_id, tid, value, issue + state.latency)
            return
        if op is Opcode.LOAD:
            self._execute_load(state, tid, operands, issue)
            return
        if op is Opcode.STORE:
            self._execute_store(state, tid, operands, issue)
            return
        if op is Opcode.SCRATCH_LOAD:
            self._execute_scratch(state, tid, operands, issue, is_store=False)
            return
        if op is Opcode.SCRATCH_STORE:
            self._execute_scratch(state, tid, operands, issue, is_store=True)
            return
        if op is Opcode.ELEVATOR:
            self._execute_elevator(state, tid, operands, issue)
            return
        if op is Opcode.ELDST:
            self._execute_eldst(state, tid, operands, issue)
            return
        if op is Opcode.BARRIER:
            self._execute_barrier(state, tid, operands, issue)
            return
        if op is Opcode.OUTPUT:
            self.outputs[str(node.param("name"))][tid] = operands[0]
            self._sink_completed(tid, issue + 1)
            return
        raise SimulationError(f"cycle simulator cannot execute {op.value}")

    def _count_unit_op(self, node: Node) -> None:
        cls = node.unit_class
        if cls is UnitClass.ALU:
            self.stats.alu_ops += 1
        elif cls is UnitClass.FPU:
            self.stats.fpu_ops += 1
        elif cls is UnitClass.SPECIAL:
            self.stats.special_ops += 1
        elif cls is UnitClass.CONTROL:
            self.stats.control_ops += 1
        elif cls is UnitClass.SPLIT_JOIN:
            self.stats.split_join_ops += 1

    # ------------------------------------------------------------------ memory
    def _execute_load(self, state: _NodeState, tid: int, operands: list[Any], issue: int) -> None:
        node = state.node
        array = node.param("array")
        index = int(operands[0])
        address = self.memory.address_of(array, index)
        result = self.hierarchy.access(address, AccessType.LOAD, issue, node.param("elem_bytes", 4))
        value = coerce(self.memory.load(array, index), node.dtype)
        self.stats.global_loads += 1
        if self._trace is not None:
            self._trace.event(
                f"load {array}", "mem", issue, result.complete_cycle - issue,
                pid=self._trace_pid, tid=self._lane[node.node_id], args={"tid": tid},
            )
        self._send_to_successors(node.node_id, tid, value, result.complete_cycle)

    def _execute_store(self, state: _NodeState, tid: int, operands: list[Any], issue: int) -> None:
        node = state.node
        array = node.param("array")
        index = int(operands[0])
        value = operands[1]
        address = self.memory.address_of(array, index)
        result = self.hierarchy.access(
            address, AccessType.STORE, issue, node.param("elem_bytes", 4)
        )
        self.memory.store(array, index, value)
        self.stats.global_stores += 1
        if self._trace is not None:
            self._trace.event(
                f"store {array}", "mem", issue, result.complete_cycle - issue,
                pid=self._trace_pid, tid=self._lane[node.node_id], args={"tid": tid},
            )
        self._send_to_successors(node.node_id, tid, value, result.complete_cycle)
        self._sink_completed(tid, result.complete_cycle)

    def _execute_scratch(
        self, state: _NodeState, tid: int, operands: list[Any], issue: int, is_store: bool
    ) -> None:
        node = state.node
        array = node.param("array")
        index = int(operands[0])
        address = self.memory.address_of(array, index)
        complete = self.hierarchy.scratch_access(address, is_store, issue)
        if self._trace is not None:
            self._trace.event(
                f"{'scratch store' if is_store else 'scratch load'} {array}",
                "scratch", issue, complete - issue,
                pid=self._trace_pid, tid=self._lane[node.node_id], args={"tid": tid},
            )
        if is_store:
            value = operands[1]
            self.memory.store(array, index, value)
            self.stats.scratch_stores += 1
            self._send_to_successors(node.node_id, tid, value, complete)
            self._sink_completed(tid, complete)
        else:
            value = coerce(self.memory.load(array, index), node.dtype)
            self.stats.scratch_loads += 1
            self._send_to_successors(node.node_id, tid, value, complete)

    # ---------------------------------------------------------- inter-thread
    def _execute_elevator(
        self, state: _NodeState, producer_tid: int, operands: list[Any], issue: int
    ) -> None:
        node = state.node
        dst = elevator_destination(
            node, producer_tid, self.geometry.block_dim, self.num_threads
        )
        if dst is None:
            return  # the producer's token has no consumer; it is dropped
        complete = issue + state.latency
        if node.param("spilled"):
            # The transfer goes through the Live Value Cache instead of the
            # fabric: one write by the producer, one read by the consumer.
            self.stats.spilled_tokens += 1
            self.stats.lvc_accesses += 2
            complete += 2 * self.lvc.access_latency
            self.lvc.write((node.node_id, dst), operands[0])
            self.lvc.read((node.node_id, dst))
        self.stats.elevator_retags += 1
        self._send_to_successors(node.node_id, dst, operands[0], complete)

    def _execute_eldst(
        self, state: _NodeState, tid: int, operands: list[Any], issue: int
    ) -> None:
        node = state.node
        predicate = bool(operands[1])
        src = eldst_source(node, tid, self.geometry.block_dim, self.num_threads)
        if predicate or src is None:
            array = node.param("array")
            index = int(operands[0])
            address = self.memory.address_of(array, index)
            result = self.hierarchy.access(
                address, AccessType.LOAD, issue, node.param("elem_bytes", 4)
            )
            value = coerce(self.memory.load(array, index), node.dtype)
            self.stats.global_loads += 1
            self.stats.eldst_memory_loads += 1
            if self._trace is not None:
                self._trace.event(
                    f"eldst load {array}", "mem", issue, result.complete_cycle - issue,
                    pid=self._trace_pid, tid=self._lane[node.node_id], args={"tid": tid},
                )
            self._complete_eldst(state, tid, value, result.complete_cycle)
            return
        ready = state.forwards_ready.pop(tid, None)
        if ready is not None:
            value, available_at = ready
            self._complete_eldst(state, tid, value, max(issue, available_at))
            return
        state.waiting_consumers[tid] = (issue, None)

    def _complete_eldst(self, state: _NodeState, tid: int, value: Any, cycle: int) -> None:
        node = state.node
        extra = 0
        if node.param("spilled"):
            self.stats.spilled_tokens += 1
            self.stats.lvc_accesses += 2
            extra = 2 * self.lvc.access_latency
        elif node.param("external_buffer_nodes"):
            extra = int(node.param("external_buffer_nodes")) * self.config.latency.elevator
        complete = cycle + self.config.latency.ldst_issue + extra
        self._send_to_successors(node.node_id, tid, value, complete)
        # Loop the value back for the next consumer thread (Fig. 9).
        next_tid = tid + abs(int(node.param("delta")))
        if next_tid < self.num_threads:
            src_of_next = eldst_source(
                node, next_tid, self.geometry.block_dim, self.num_threads
            )
            if src_of_next == tid:
                self._push(complete, _EV_FORWARD, (node.node_id, next_tid, value))

    def _forward_ready(self, node_id: int, tid: int, value: Any, cycle: int) -> None:
        state = self._nodes[node_id]
        self.stats.eldst_forwards += 1
        if self._trace is not None:
            self._trace.instant(
                "eldst_forward", "interthread", cycle,
                pid=self._trace_pid, tid=self._lane[node_id], args={"tid": tid},
            )
        waiting = state.waiting_consumers.pop(tid, None)
        if waiting is not None:
            issue, _ = waiting
            self._complete_eldst(state, tid, value, max(issue, cycle))
        else:
            state.forwards_ready[tid] = (value, cycle)

    # ---------------------------------------------------------------- barrier
    def _execute_barrier(
        self, state: _NodeState, tid: int, operands: list[Any], issue: int
    ) -> None:
        """Park ``tid`` until its barrier group is complete.

        An un-windowed barrier waits for every thread this core runs (the
        whole block on a single core, the shard on a sharded run); a
        ``window`` parameter bounds the synchronisation to consecutive
        groups of ``window`` linear TIDs, mirroring the transmission
        windows of Sec. 3.2.
        """
        node = state.node
        window = node.param("window")
        group = tid // int(window) if window else -1
        arrived = state.barrier_arrived.setdefault(group, {})
        arrived[tid] = (issue, operands[0])
        self.stats.barrier_arrivals += 1
        # Parking the in-flight value costs one LVC write per thread.
        self.stats.lvc_accesses += 1
        self.lvc.write((node.node_id, tid), operands[0])
        if len(arrived) == state.barrier_expected[group]:
            release = max(arrival for arrival, _ in arrived.values())
            release += self.config.latency.control
            if self._trace is not None:
                first = min(arrival for arrival, _ in arrived.values())
                self._trace.event(
                    "barrier_release", "interthread", first, release - first,
                    pid=self._trace_pid, tid=self._lane[node.node_id],
                    args={"group": group, "count": len(arrived)},
                )
            for waiting_tid, (arrival, value) in arrived.items():
                self.stats.barrier_wait_cycles += release - arrival
                self.stats.lvc_accesses += 1
                self.lvc.read((node.node_id, waiting_tid))
                self._send_to_successors(
                    node.node_id, waiting_tid, value, release + self.lvc.access_latency
                )
            del state.barrier_arrived[group]

    # -------------------------------------------------------------- retirement
    def _sink_completed(self, tid: int, cycle: int) -> None:
        self._completion_cycle = max(self._completion_cycle, cycle)
        self._sink_done[tid] += 1
        if self._sink_done[tid] == len(self._sink_nodes):
            self._retired += 1


#: Engines selectable through :func:`repro.sim.simulate`.
ENGINES = ("auto", "event", "batched", "window-batched")


def resolve_engine(engine: str, graph: DataflowGraph) -> str:
    """Resolve ``"auto"`` to a concrete engine for ``graph``.

    Graphs without inter-thread dependences (no ELEVATOR/ELDST/BARRIER
    nodes) run on the wave-batched NumPy engine; communicating graphs
    whose traffic is feed-forward and window-bounded
    (:func:`repro.graph.interthread.window_batch_problem`) run on the
    window-batched engine; everything else — inter-thread recurrences,
    whole-block barriers — runs on the event-driven simulator, which
    models token forwarding exactly.
    """
    if engine not in ENGINES:
        raise SimulationError(f"unknown engine '{engine}'; expected one of {ENGINES}")
    if engine != "auto":
        return engine
    if not graph.has_interthread():
        return "batched"
    return "window-batched" if window_batch_problem(graph) is None else "event"


def build_simulator(
    compiled: CompiledKernel,
    launch: KernelLaunch,
    engine: str = "auto",
    hierarchy: MemoryHierarchy | None = None,
    max_cycles: int = 20_000_000,
    thread_ids: Sequence[int] | None = None,
    memory: MemoryImage | None = None,
    dram_contention: int = 1,
    trace_pid: int = 0,
):
    """Construct the simulator for ``engine`` (the single dispatch site).

    Used by :func:`run_cycle_accurate` and the multi-core sharding layer
    so engine selection and construction live in one place.
    ``dram_contention`` is the number of cores sharing the DRAM device; the
    event engine models the contention exactly through the shared bank
    state, while the batched engine folds it into its analytic DRAM
    queueing model.

    ``"auto"`` consumes the static analyzer's engine verdict
    (``RA040``/``RA041``, cached on the kernel) rather than re-probing the
    graph; :func:`resolve_engine` remains the definition both agree on.
    """
    if engine == "auto":
        from repro.analyze.manager import analyze_kernel

        resolved = analyze_kernel(compiled).engine
    else:
        resolved = resolve_engine(engine, compiled.graph)
    if resolved in ("batched", "window-batched"):
        if resolved == "window-batched":
            from repro.sim.window_batched import WindowBatchedSimulator as sim_cls
        else:
            from repro.sim.batched import BatchedSimulator as sim_cls

        return sim_cls(
            compiled,
            launch,
            hierarchy=hierarchy,
            max_cycles=max_cycles,
            thread_ids=thread_ids,
            memory=memory,
            dram_contention=dram_contention,
            trace_pid=trace_pid,
        )
    return CycleSimulator(
        compiled,
        launch,
        hierarchy=hierarchy,
        max_cycles=max_cycles,
        thread_ids=thread_ids,
        memory=memory,
        trace_pid=trace_pid,
    )


def _run_single_core(
    compiled: CompiledKernel,
    launch: KernelLaunch,
    hierarchy: MemoryHierarchy | None = None,
    engine: str = "auto",
    max_cycles: int = 20_000_000,
) -> CycleResult:
    """Single-core run; the engine-dispatch core behind :func:`repro.sim.simulate`.

    ``engine`` selects the execution engine: ``"event"`` is the exact
    event-driven model, ``"batched"`` the wave-batched NumPy engine for
    inter-thread-free graphs, ``"window-batched"`` its extension to
    feed-forward communicating graphs, and ``"auto"`` (the default)
    picks the fastest engine that can execute the graph.  All engines
    produce bit-identical outputs and identical operation counters; the
    batched engines' cycle counts and memory-hierarchy counters come
    from the capacity/conflict-aware analytic cache model
    (:mod:`repro.sim.analytic_cache`) — equal to the event engine's on
    order-stable traces, close estimates otherwise.  ``"auto"`` still
    resolves to the event engine when a ``hierarchy`` is passed in
    explicitly — a caller handing over a hierarchy wants its exact,
    event-accurate counters.
    """
    if engine == "auto" and hierarchy is not None:
        engine = "event"
    return build_simulator(
        compiled, launch, engine=engine, hierarchy=hierarchy, max_cycles=max_cycles
    ).run()


def run_cycle_accurate(
    compiled: CompiledKernel,
    launch: KernelLaunch,
    hierarchy: MemoryHierarchy | None = None,
    engine: str = "auto",
    max_cycles: int = 20_000_000,
) -> CycleResult:
    """Deprecated: use :func:`repro.sim.simulate` instead.

    Thin single-core wrapper kept for backwards compatibility; it
    delegates to the same dispatch core as ``simulate()`` and returns
    the legacy :class:`CycleResult`.
    """
    warnings.warn(
        "run_cycle_accurate() is deprecated; use repro.sim.simulate() "
        "(returns a SimulationResult with resolved engine/cores provenance)",
        DeprecationWarning,
        stacklevel=2,
    )
    return _run_single_core(
        compiled,
        launch,
        hierarchy=hierarchy,
        engine=engine,
        max_cycles=max_cycles,
    )
