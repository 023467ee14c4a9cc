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

import itertools
from dataclasses import dataclass, field
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from typing import Any, Callable, Sequence

import numpy as np

from repro.compiler.pipeline import CompiledKernel
from repro.config.system import SystemConfig
from repro.errors import DeadlockError, SimulationError
from repro.graph.dfg import DataflowGraph
from repro.graph.interthread import map_key, producer_map
from repro.graph.node import Node
from repro.graph.opcodes import (
    EFFECT_OPCODES,
    MEMORY_OPCODES,
    SOURCE_OPCODES,
    Opcode,
    UnitClass,
)
from repro.graph.semantics import PURE_OPCODES, coerce, converter, pure_function
from repro.kernel.arrays import ArraySpec
from repro.kernel.geometry import ThreadGeometry
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage, out_of_bounds
from repro.memory.request import AccessType
from repro.obs.trace import INJECT_LANE, active_tracer
from repro.sim.launch import KernelLaunch
from repro.sim.multicore import core_threads
from repro.sim.result import MAX_CYCLES, SimulationResult
from repro.sim.stats import ExecutionStats

__all__ = [
    "CycleSimulator",
    "LVC_ACCESS_LATENCY",
    "trace_lanes",
]


# Event kinds, ordered so simultaneous events process deterministically.
_EV_TOKEN = 0
_EV_FORWARD = 1
_EV_INJECT = 2


#: Cycles of one Live Value Cache access.  The LVC parks live values that
#: cannot stay in the fabric: spilled inter-thread transfers (Sec. 4.3)
#: and values waiting at a barrier.  Both engines charge it per access.
LVC_ACCESS_LATENCY = 6


#: The ``ExecutionStats`` field counting each functional-unit class's
#: operations; the other classes (memory, inter-thread, sinks) have none.
_OP_COUNTERS = {
    UnitClass.ALU: "alu_ops",
    UnitClass.FPU: "fpu_ops",
    UnitClass.SPECIAL: "special_ops",
    UnitClass.CONTROL: "control_ops",
    UnitClass.SPLIT_JOIN: "split_join_ops",
}

#: Thread-index source opcodes, in the order of ``(x, y, linear)``.
_TID_OPCODES = (Opcode.TID_X, Opcode.TID_Y, Opcode.TID_LINEAR)


def _map_tables(node: Node, block_dim: Sequence[int]) -> tuple[list[int], list[int]]:
    """``node``'s producer of every launch thread and the inverse map, -1 for none."""
    sources = producer_map(node, block_dim)
    destinations = np.full(sources.size, -1, dtype=np.int64)
    consumers = np.flatnonzero(sources >= 0)
    destinations[sources[consumers]] = consumers
    return sources.tolist(), destinations.tolist()


def trace_lanes(tracer: Any, compiled: CompiledKernel, pid: int) -> dict[int, int]:
    """Name core ``pid``'s trace process and one lane per node, after the
    physical PE hosting it; returns each node's lane."""
    placement = compiled.placement.node_to_unit
    tracer.set_process_name(pid, f"core {pid}")
    lanes: dict[int, int] = {}
    for node in compiled.index.nodes:
        lane = int(placement.get(node.node_id, node.node_id))
        lanes[node.node_id] = lane
        tracer.set_lane_name(pid, lane, f"PE {lane}")
    return lanes


@dataclass(slots=True, eq=False)
class _NodeState:
    """Mutable per-node simulation state plus the node's static tables.

    ``ports``, ``fanout``, ``fanout_hops``, ``op_counter``, ``pure``,
    ``fire``, ``memory``, ``sources`` and ``destinations`` depend only on
    the compiled graph and its memory image; ``CycleSimulator._prepare``
    fills them once so a firing does table lookups instead of re-deriving
    them.
    """

    node: Node
    arity: int
    latency: int
    #: Operand ports in operand order.
    ports: tuple[int, ...] = ()
    #: ``(destination state, port, latency)`` per outgoing edge.
    fanout: tuple[tuple[_NodeState, int, int], ...] = ()
    #: Mapped NoC hops of one send over every outgoing edge.
    fanout_hops: int = 0
    #: ``ExecutionStats`` field that counts this node's firings, if any.
    op_counter: str | None = None
    #: Pure nodes: ``semantics.pure_function(node)``, called as
    #: ``pure(operands)``; the run loop fires these nodes inline.
    pure: Callable[[Sequence[Any]], Any] | None = None
    #: Every other node: its opcode handler, an unbound ``CycleSimulator``
    #: method called as ``fire(simulator, state, tid, operands, issue_cycle)``;
    #: unbound so the states hold no reference back to their simulator.
    fire: Callable[..., None] | None = None
    #: Memory nodes: ``(array spec, backing array, access bytes, dtype
    #: converter)`` of the array the node reads or writes.
    memory: tuple[ArraySpec, np.ndarray, int, type] | None = None
    #: ELEVATOR/ELDST nodes: the producer TID of every launch thread
    #: (``interthread.producer_map``, -1 for none) and its inverse, the
    #: consumer of every producer; shared by every node with the same map.
    sources: list[int] | None = None
    destinations: list[int] | None = None
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

    #: Engine name recorded in ``stats.extra["engine"]`` and the result.
    engine = "event"

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
        self.compiled = compiled
        self.config: SystemConfig = compiled.config
        self.graph: DataflowGraph = compiled.graph
        self.launch = launch
        self.geometry: ThreadGeometry = ThreadGeometry(compiled.block_dim)
        self.num_threads = self.geometry.num_threads
        # The threads this core executes: its shard of the analyzer's plan.
        self._threads = core_threads(compiled, cores, core).tolist()

        self.memory = memory if memory is not None else launch.build_memory_image()
        self.hierarchy = hierarchy or MemoryHierarchy(self.config.memory)
        self.stats = ExecutionStats(threads=len(self._threads))
        self.outputs: dict[str, list[Any]] = {}

        # Heap entries are flat ``(cycle, kind, seq, *payload)`` tuples; the
        # unique ``seq`` settles ties, so payloads are never compared.
        self._events: list[tuple] = []
        self._sequence = itertools.count()
        self._nodes: dict[int, _NodeState] = {}
        # Source nodes that emit a token for every injected thread, in node
        # order, each with its constant (CONST, ELEVATOR fallback) or its
        # index into ``(x, y, z, linear)`` (thread-index sources).
        self._injectors: list[tuple[_NodeState, Any]] = []
        self._sink_nodes: list[int] = []
        self._sink_done: dict[int, int] = {}
        self._retired = 0
        self._completion_cycle = 0

        # Observability: the ambient tracer is bound once here; every hot
        # path guards its hook with one `is not None` branch, so tracing
        # off costs a pointer comparison per event and nothing else.
        self._trace = active_tracer()
        self._core = core
        self._lane: dict[int, int] = {}

        self._prepare()
        if self._trace is not None:
            self._lane = trace_lanes(self._trace, self.compiled, self._core)

    # ------------------------------------------------------------------ setup
    def _prepare(self) -> None:
        replicas = self.compiled.replicas
        index = self.compiled.index
        maps: dict[tuple, tuple[list[int], list[int]]] = {}
        for node in index.nodes:
            op = node.opcode
            nid = node.node_id
            inputs = index.inputs[nid]
            state = _NodeState(
                node=node,
                arity=len(inputs),
                latency=index.unit_latency[nid],
                ports=tuple(edge.dst_port for edge in inputs),
                op_counter=_OP_COUNTERS.get(index.unit_class[nid]),
                port_free_at=[0] * max(1, replicas),
            )
            if op in PURE_OPCODES:
                state.pure = pure_function(node)
            elif op not in SOURCE_OPCODES:
                state.fire = _FIRING_RULES[op]
            if op in MEMORY_OPCODES:
                name = node.param("array")
                state.memory = (
                    self.memory.spec(name),
                    self.memory.array(name),
                    node.param("elem_bytes", 4),
                    converter(node.dtype),
                )
            if op in (Opcode.ELEVATOR, Opcode.ELDST):
                key = map_key(node)
                if key not in maps:
                    maps[key] = _map_tables(node, self.geometry.block_dim)
                state.sources, state.destinations = maps[key]
            self._nodes[nid] = state
            if op is Opcode.CONST:
                self._injectors.append((state, coerce(node.param("value"), node.dtype)))
            elif op in _TID_OPCODES:
                self._injectors.append((state, _TID_OPCODES.index(op)))
            elif op is Opcode.ELEVATOR:
                self._injectors.append((state, coerce(node.param("const"), node.dtype)))
            if op is Opcode.BARRIER:
                window = node.param("window")
                for tid in self._threads:
                    group = tid // int(window) if window else -1
                    state.barrier_expected[group] = state.barrier_expected.get(group, 0) + 1
            if op in EFFECT_OPCODES:
                self._sink_nodes.append(nid)
            if op is Opcode.OUTPUT:
                self.outputs.setdefault(
                    str(node.param("name")), [None] * self.num_threads
                )
        latency, hops = index.edge_latency, index.edge_hops
        for src, successors in index.successors.items():
            state = self._nodes[src]
            state.fanout = tuple(
                (self._nodes[dst], port, latency[(src, dst)]) for _, dst, port in successors
            )
            # One token traverses the mapped route exactly once; hops come
            # from the hop table, not from the clamped edge latency.
            state.fanout_hops = sum(hops[(src, dst)] for _, dst, _ in successors)
        self._sink_done = {tid: 0 for tid in self._threads}

    # ------------------------------------------------------------------ events
    def _send(self, state: _NodeState, tid: int, value: Any, cycle: int) -> None:
        """Emit ``value`` from ``state``'s node to every consumer of ``tid``."""
        fanout = state.fanout
        if not fanout:
            return
        stats = self.stats
        stats.tokens_sent += len(fanout)
        stats.noc_hops += state.fanout_hops
        events = self._events
        sequence = self._sequence
        for dst, port, latency in fanout:
            _heappush(events, (cycle + latency, _EV_TOKEN, next(sequence), dst, port, tid, value))

    # ------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        self._schedule_injection()
        total_sinks = len(self._sink_nodes)
        if total_sinks == 0:
            raise SimulationError("kernel has no store or output nodes; nothing to run")

        events = self._events
        sequence = self._sequence
        trace = self._trace
        single_port = max(1, self.compiled.replicas) == 1
        inserts = 0
        while events:
            event = _heappop(events)
            cycle = event[0]
            if cycle > MAX_CYCLES:
                raise DeadlockError(
                    f"simulation of '{self.graph.name}' exceeded {MAX_CYCLES} cycles"
                )
            kind = event[1]
            if kind == _EV_INJECT:
                self._inject_thread(event[3], cycle)
                continue
            if kind == _EV_FORWARD:
                self._forward_ready(event[3], event[4], event[5], cycle)
                continue

            # A token arrives: buffer it until the thread's operands match.
            _, _, _, state, port, tid, value = event
            inserts += 1
            if trace is not None:
                trace.instant(
                    "token", "token", cycle, pid=self._core,
                    tid=self._lane[state.node.node_id], args={"tid": tid, "port": port},
                )
            if state.arity == 1:
                operands = [value]
            else:
                pending = state.pending
                slot = pending.get(tid)
                if slot is None:
                    pending[tid] = {port: value}
                    continue
                if port in slot:
                    raise SimulationError(
                        f"duplicate operand {port} for thread {tid} at {state.node.label()}"
                    )
                slot[port] = value
                if len(slot) < state.arity:
                    continue
                del pending[tid]
                operands = [slot[p] for p in state.ports]

            # Fire: claim an issue port (one op per cycle per replica).
            if single_port:
                free_at = state.port_free_at
                issue = cycle if cycle > free_at[0] else free_at[0]
                free_at[0] = issue + 1
            else:
                issue = self._issue_cycle(state, cycle)
            state.executions += 1
            if trace is not None:
                node = state.node
                trace.event(
                    node.label(), "op", issue, max(1, state.latency),
                    pid=self._core, tid=self._lane[node.node_id],
                    args={"tid": tid, "cls": node.unit_class.name},
                )
            pure = state.pure
            if pure is None:
                state.fire(self, state, tid, operands, issue)
                continue
            # A pure node fires inline: evaluate, then send the result to
            # every consumer (its token and hop counts are folded below).
            value = pure(operands)
            ready = issue + state.latency
            for dst, dst_port, latency in state.fanout:
                _heappush(
                    events,
                    (ready + latency, _EV_TOKEN, next(sequence), dst, dst_port, tid, value),
                )

        if self._retired != len(self._threads):
            missing = [t for t, done in self._sink_done.items() if done < total_sinks]
            raise DeadlockError(
                f"kernel '{self.graph.name}' deadlocked: {len(missing)} thread(s) never "
                f"retired (e.g. thread {missing[0]})"
            )

        # Every firing was one token-buffer match; the per-class operation
        # counters, and the tokens and hops of pure nodes (one send per
        # firing), are folded from the per-node firing counts.
        self.stats.token_buffer_inserts += inserts
        for state in self._nodes.values():
            self.stats.token_buffer_matches += state.executions
            if state.op_counter is not None:
                self.stats.bump(state.op_counter, state.executions)
            if state.pure is not None:
                self.stats.tokens_sent += state.executions * len(state.fanout)
                self.stats.noc_hops += state.executions * state.fanout_hops
            # A recurrence makes the states' fan-out links a cycle; drop
            # them so the finished run is freed by reference count.
            state.fanout = ()
        self.stats.cycles = self._completion_cycle
        # Provenance: cached counter rows must be able to tell which engine
        # (and how many cores — overwritten by the multi-core merge) made them.
        self.stats.extra["engine"] = self.engine
        self.stats.extra.setdefault("cores", 1)
        return SimulationResult(
            cycles=self._completion_cycle,
            stats=self.stats,
            memory=self.memory,
            outputs=self.outputs,
            engine=self.engine,
            cores=1,
            hierarchies=(self.hierarchy,),
        )

    # --------------------------------------------------------------- injection
    def _schedule_injection(self) -> None:
        replicas = max(1, self.compiled.replicas)
        events = self._events
        for position, tid in enumerate(self._threads):
            _heappush(events, (position // replicas, _EV_INJECT, next(self._sequence), tid))

    def _inject_thread(self, tid: int, cycle: int) -> None:
        if self._trace is not None:
            self._trace.instant(
                "inject", "inject", cycle, pid=self._core, tid=INJECT_LANE,
                args={"tid": tid},
            )
        thread_index = None
        for state, source in self._injectors:
            node = state.node
            if node.opcode is Opcode.CONST:
                self._send(state, tid, source, cycle)
            elif node.opcode is Opcode.ELEVATOR:
                # Threads without a valid producer receive the fallback
                # constant, generated when their slot is injected (Fig. 4).
                if state.sources[tid] < 0:
                    self.stats.elevator_constants += 1
                    if self._trace is not None:
                        self._trace.instant(
                            f"{node.label()} const", "interthread", cycle,
                            pid=self._core, tid=self._lane[node.node_id],
                            args={"tid": tid},
                        )
                    self._send(state, tid, source, cycle + state.latency)
            else:
                if thread_index is None:
                    x, y, _ = self.geometry.unlinearize(tid)
                    thread_index = (x, y, tid)
                self._send(state, tid, thread_index[source], cycle)

    def _issue_cycle(self, state: _NodeState, ready_cycle: int) -> int:
        """Claim the earliest-free issue port of a replicated node.

        Ties go to the lowest port index; bookkeeping is in whole cycles,
        so the issue cycle is exact.
        """
        free_at = state.port_free_at
        earliest = min(free_at)
        port_index = free_at.index(earliest)
        start = ready_cycle if ready_cycle > earliest else earliest
        free_at[port_index] = start + 1
        return start

    # ---------------------------------------------------------------- handlers
    def _execute_output(
        self, state: _NodeState, tid: int, operands: list[Any], issue: int
    ) -> None:
        self.outputs[str(state.node.param("name"))][tid] = operands[0]
        self._sink_completed(tid, issue + 1)

    # ------------------------------------------------------------------ memory
    @staticmethod
    def _address(spec: ArraySpec, index: int) -> int:
        """Byte address of ``spec[index]``, bounds-checked like ``MemoryImage``."""
        if not 0 <= index < spec.length:
            raise out_of_bounds("address", spec, index)
        return spec.base_address + index * spec.elem_bytes

    def _execute_load(self, state: _NodeState, tid: int, operands: list[Any], issue: int) -> None:
        spec, backing, size, convert = state.memory
        index = int(operands[0])
        address = self._address(spec, index)
        complete = self.hierarchy.access(address, AccessType.LOAD, issue, size)
        value = convert(backing.item(index))
        self.stats.global_loads += 1
        if self._trace is not None:
            self._trace.event(
                f"load {spec.name}", "mem", issue, complete - issue,
                pid=self._core, tid=self._lane[state.node.node_id], args={"tid": tid},
            )
        self._send(state, tid, value, complete)

    def _execute_store(self, state: _NodeState, tid: int, operands: list[Any], issue: int) -> None:
        spec, backing, size, _ = state.memory
        index = int(operands[0])
        value = operands[1]
        address = self._address(spec, index)
        complete = self.hierarchy.access(address, AccessType.STORE, issue, size)
        backing[index] = value
        self.stats.global_stores += 1
        if self._trace is not None:
            self._trace.event(
                f"store {spec.name}", "mem", issue, complete - issue,
                pid=self._core, tid=self._lane[state.node.node_id], args={"tid": tid},
            )
        self._send(state, tid, value, complete)
        self._sink_completed(tid, complete)

    def _execute_scratch(
        self, state: _NodeState, tid: int, operands: list[Any], issue: int
    ) -> None:
        spec, backing, _, convert = state.memory
        is_store = state.node.opcode is Opcode.SCRATCH_STORE
        index = int(operands[0])
        address = self._address(spec, index)
        complete = self.hierarchy.scratchpad.access(address, is_store, issue)
        if self._trace is not None:
            self._trace.event(
                f"{'scratch store' if is_store else 'scratch load'} {spec.name}",
                "scratch", issue, complete - issue,
                pid=self._core, tid=self._lane[state.node.node_id], args={"tid": tid},
            )
        if is_store:
            value = operands[1]
            backing[index] = value
            self.stats.scratch_stores += 1
            self._send(state, tid, value, complete)
            self._sink_completed(tid, complete)
        else:
            value = convert(backing.item(index))
            self.stats.scratch_loads += 1
            self._send(state, tid, value, complete)

    # ---------------------------------------------------------- inter-thread
    def _execute_elevator(
        self, state: _NodeState, producer_tid: int, operands: list[Any], issue: int
    ) -> None:
        node = state.node
        dst = state.destinations[producer_tid]
        if dst < 0:
            return  # the producer's token has no consumer; it is dropped
        complete = issue + state.latency
        if node.param("spilled"):
            # The transfer goes through the Live Value Cache instead of the
            # fabric: one write by the producer, one read by the consumer.
            self.stats.spilled_tokens += 1
            self.stats.lvc_accesses += 2
            complete += 2 * LVC_ACCESS_LATENCY
        self.stats.elevator_retags += 1
        self._send(state, dst, operands[0], complete)

    def _execute_eldst(
        self, state: _NodeState, tid: int, operands: list[Any], issue: int
    ) -> None:
        node = state.node
        predicate = bool(operands[1])
        if predicate or state.sources[tid] < 0:
            spec, backing, size, convert = state.memory
            index = int(operands[0])
            address = self._address(spec, index)
            complete = self.hierarchy.access(address, AccessType.LOAD, issue, size)
            value = convert(backing.item(index))
            self.stats.global_loads += 1
            self.stats.eldst_memory_loads += 1
            if self._trace is not None:
                self._trace.event(
                    f"eldst load {spec.name}", "mem", issue, complete - issue,
                    pid=self._core, tid=self._lane[node.node_id], args={"tid": tid},
                )
            self._complete_eldst(state, tid, value, complete)
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
            extra = 2 * LVC_ACCESS_LATENCY
        elif node.param("external_buffer_nodes"):
            extra = int(node.param("external_buffer_nodes")) * self.config.latency.elevator
        complete = cycle + self.config.latency.ldst_issue + extra
        self._send(state, tid, value, complete)
        # Loop the value back for the next consumer thread (Fig. 9): the
        # thread |delta| on, if this thread is its producer.
        next_tid = tid + abs(int(node.param("delta")))
        if state.destinations[tid] == next_tid:
            _heappush(
                self._events,
                (complete, _EV_FORWARD, next(self._sequence), state, next_tid, value),
            )

    def _forward_ready(self, state: _NodeState, tid: int, value: Any, cycle: int) -> None:
        self.stats.eldst_forwards += 1
        if self._trace is not None:
            self._trace.instant(
                "eldst_forward", "interthread", cycle,
                pid=self._core, tid=self._lane[state.node.node_id], args={"tid": tid},
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
        if len(arrived) == state.barrier_expected[group]:
            release = max(arrival for arrival, _ in arrived.values())
            release += self.config.latency.control
            if self._trace is not None:
                first = min(arrival for arrival, _ in arrived.values())
                self._trace.event(
                    "barrier_release", "interthread", first, release - first,
                    pid=self._core, tid=self._lane[node.node_id],
                    args={"group": group, "count": len(arrived)},
                )
            for waiting_tid, (arrival, value) in arrived.items():
                self.stats.barrier_wait_cycles += release - arrival
                self.stats.lvc_accesses += 1
                self._send(state, waiting_tid, value, release + LVC_ACCESS_LATENCY)
            del state.barrier_arrived[group]

    # -------------------------------------------------------------- retirement
    def _sink_completed(self, tid: int, cycle: int) -> None:
        self._completion_cycle = max(self._completion_cycle, cycle)
        self._sink_done[tid] += 1
        if self._sink_done[tid] == len(self._sink_nodes):
            self._retired += 1


#: The handler that fires each opcode that is neither pure nor a source
#: (sources only inject tokens; an ELEVATOR injects and fires).
_FIRING_RULES: dict[Opcode, Callable[..., None]] = {
    Opcode.LOAD: CycleSimulator._execute_load,
    Opcode.STORE: CycleSimulator._execute_store,
    Opcode.SCRATCH_LOAD: CycleSimulator._execute_scratch,
    Opcode.SCRATCH_STORE: CycleSimulator._execute_scratch,
    Opcode.ELEVATOR: CycleSimulator._execute_elevator,
    Opcode.ELDST: CycleSimulator._execute_eldst,
    Opcode.BARRIER: CycleSimulator._execute_barrier,
    Opcode.OUTPUT: CycleSimulator._execute_output,
}
