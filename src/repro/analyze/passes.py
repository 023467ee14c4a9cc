"""The analyzer's kernel-level passes.

Each pass is a pure function from a kernel's frozen
:class:`~repro.graph.index.KernelIndex` (plus, where needed, the system
configuration or the compiled kernel) to a list of
:class:`~repro.analyze.diagnostics.Diagnostic`.  The index holds the
adjacency, both topological orders and the strongly connected components
every pass reads, so no pass walks the graph itself.  The passes statically
predict what the simulators decide dynamically, and the dynamic layers
consume these predictions instead of re-deriving them:

* :func:`deadlock_diagnostics` — what makes the engines raise
  :class:`~repro.errors.DeadlockError` at run time;
* :func:`scratch_race_diagnostics` — scratchpad write/write and
  write/read pairs not ordered by a dependence path or barrier;
* :func:`shard_plan` — the window-aligned multi-core cut (or why none
  exists) that ``sim/multicore.py::plan_shards`` applies a core count to;
* :func:`engine_diagnostics` / :func:`pure_load_ancestors` — the
  batched-engine eligibility and replay-order stability facts
  ``sim/api.py::simulate`` and ``sim/batched.py`` act on;
* :func:`critical_path_bound` — a static lower bound on single-core
  cycles from unit and routed-edge latencies.

Only graph submodules and the config layer are imported at module scope,
so the analyze package stays importable from ``repro.graph.validate``
mid-initialisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analyze.diagnostics import Diagnostic, Severity
from repro.config.system import SystemConfig
from repro.graph.interthread import communication_windows, window_batch_problem
from repro.graph.node import Node
from repro.graph.opcodes import EFFECT_OPCODES, MEMORY_OPCODES, SOURCE_OPCODES, Opcode
from repro.graph.semantics import PURE_OPCODES

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.compiler.pipeline import CompiledKernel
    from repro.graph.index import KernelIndex

__all__ = [
    "critical_path_bound",
    "deadlock_diagnostics",
    "engine_diagnostics",
    "pure_load_ancestors",
    "scratch_race_diagnostics",
    "ShardPlan",
    "shard_plan",
]


def _labels(index: KernelIndex, node_ids: Iterable[int]) -> tuple[str, ...]:
    return tuple(index.by_id[nid].label() for nid in node_ids)


# --------------------------------------------------------------- deadlock pass
def _has_cycle_with_nonpositive_weight(
    nodes: Sequence[int], edges: list[tuple[int, int, int]]
) -> bool:
    """True if some cycle over ``edges`` has total weight <= 0.

    Weights are integers; scaling each edge to ``w * (n + 1) - 1`` makes
    "weight <= 0" exactly "scaled weight < 0" for any simple cycle (at
    most ``n`` edges long), so Bellman-Ford negative-cycle detection
    answers the question exactly.
    """
    scale = len(nodes) + 1
    dist = {nid: 0 for nid in nodes}
    for _ in range(len(nodes)):
        changed = False
        for src, dst, weight in edges:
            candidate = dist[src] + weight * scale - 1
            if candidate < dist[dst]:
                dist[dst] = candidate
                changed = True
        if not changed:
            return False
    for src, dst, weight in edges:
        if dist[src] + weight * scale - 1 < dist[dst]:
            return True
    return False


def deadlock_diagnostics(index: KernelIndex, config: SystemConfig) -> list[Diagnostic]:
    """Statically predict run-time :class:`DeadlockError` conditions.

    The dependence graph includes temporal edges; an edge into an
    ELEVATOR with hardware shift ``d`` means the consumer thread ``t``
    depends on the producer at thread ``t - d``.  A strongly connected
    component deadlocks when

    * it contains a BARRIER (some thread's arrival waits on the barrier's
      own release — ``RA011``), or
    * its cycle shifts are not strictly one-signed: a zero-net-shift
      cycle, or two cycles shifting in opposite directions, make some
      thread depend on itself (``RA010``).

    Cyclic-but-live recurrences (all shifts one-signed, e.g. the
    prefix-sum of Fig. 6) additionally demand token-buffer slots for the
    ``|shift| + 1`` threads in flight between producer and consumer; a
    configured buffer smaller than that is flagged ``RA012`` (a hardware
    capacity hazard — the simulators' buffers are unbounded, so this
    never deadlocks a simulation).
    """
    by_id = index.by_id
    weighted: list[tuple[int, int, int]] = []
    for src, dst, _ in index.edges:
        node = by_id[dst]
        weight = int(node.param("delta")) if node.opcode is Opcode.ELEVATOR else 0
        weighted.append((src, dst, weight))

    components = index.components
    component_of = {nid: c for c, component in enumerate(components) for nid in component}
    # One pass buckets every edge whose ends share a component; a
    # singleton's only such edge is a self-loop.
    inner_edges: dict[int, list[tuple[int, int, int]]] = {}
    for src, dst, weight in weighted:
        if component_of[src] == component_of[dst]:
            inner_edges.setdefault(component_of[src], []).append((src, dst, weight))

    out: list[Diagnostic] = []
    for c, component in enumerate(components):
        inner = inner_edges.get(c, [])
        if len(component) < 2 and not inner:
            continue
        members = set(component)
        elevators = sorted(nid for nid in members if by_id[nid].opcode is Opcode.ELEVATOR)
        barriers = sorted(nid for nid in members if by_id[nid].opcode is Opcode.BARRIER)
        provenance = tuple(sorted(members))
        if barriers:
            out.append(
                Diagnostic(
                    code="RA011",
                    severity=Severity.ERROR,
                    message=(
                        f"barrier {_labels(index, barriers)[0]} sits inside an "
                        f"inter-thread dependence cycle of {len(members)} nodes; "
                        "its release waits on tokens it gates"
                    ),
                    nodes=provenance,
                    labels=_labels(index, provenance),
                    hint="break the cycle or move the barrier out of it",
                )
            )
            continue
        if not elevators:
            continue  # a non-temporal cycle; the structure pass reports RA005
        has_nonpositive = _has_cycle_with_nonpositive_weight(component, inner)
        has_nonnegative = _has_cycle_with_nonpositive_weight(
            component, [(src, dst, -weight) for src, dst, weight in inner]
        )
        if has_nonpositive and has_nonnegative:
            out.append(
                Diagnostic(
                    code="RA010",
                    severity=Severity.ERROR,
                    message=(
                        "inter-thread dependence cycle through "
                        f"{', '.join(_labels(index, elevators))} has no consistent "
                        "thread direction (net shifts cancel); no thread's "
                        "operands can ever all arrive"
                    ),
                    nodes=provenance,
                    labels=_labels(index, provenance),
                    hint="make every elevator in the cycle shift the same direction",
                )
            )
            continue
        entries = config.token_buffer.entries
        for nid in elevators:
            demand = abs(int(by_id[nid].param("delta"))) + 1
            if demand > entries:
                out.append(
                    Diagnostic(
                        code="RA012",
                        severity=Severity.WARNING,
                        message=(
                            f"recurrence through {by_id[nid].label()} keeps "
                            f"{demand} threads in flight but the token buffer has "
                            f"only {entries} entr{'y' if entries == 1 else 'ies'}"
                        ),
                        nodes=(nid,),
                        labels=_labels(index, (nid,)),
                        hint="raise TokenBufferConfig.entries or shorten the shift",
                        data={"demand": demand, "entries": entries},
                    )
                )
    return out


# ----------------------------------------------------------- scratch-race pass
def _scratch_reach(index: KernelIndex, bit: dict[int, int]) -> dict[int, int]:
    """Per node, the OR of ``bit`` over the nodes reachable in one or more edges.

    ``bit`` maps each scratch node to its own bit.  The index lists the
    strongly connected components in reverse topological order, so each
    component is closed after every component it reaches: its set is the
    union over its outgoing edges of the target's bit and set — plus its
    own scratch bits when it holds a cycle.  Every edge is visited once,
    whatever the number of scratch nodes.
    """
    successors = index.successors
    reach: dict[int, int] = {}
    for component in index.components:
        members = set(component)
        cyclic = len(component) > 1
        bits = 0
        for member in component:
            for _, succ, _ in successors[member]:
                if succ in members:
                    cyclic = True
                else:
                    bits |= bit.get(succ, 0) | reach[succ]
        if cyclic:
            for member in component:
                bits |= bit.get(member, 0)
        for member in component:
            reach[member] = bits
    return reach


def scratch_race_diagnostics(index: KernelIndex) -> list[Diagnostic]:
    """Flag scratchpad access pairs with no ordering between them.

    Two static accesses to the same scratch array are *ordered* when a
    directed dependence path connects them (same-thread ordering, e.g. a
    ``scratch_load(..., order=...)`` operand chain) — cross-thread
    visibility additionally requires a BARRIER on that path, which is the
    idiom the MT kernels use (store -> barrier -> load).  A write/write
    or write/read pair with no path either way races: which access lands
    first depends on scheduling, not the program.
    """
    scratch_nodes = index.nodes_with_opcode(Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE)
    if not scratch_nodes:
        return []
    bit = {node.node_id: 1 << i for i, node in enumerate(scratch_nodes)}
    reach = _scratch_reach(index, bit)

    by_array: dict[str, list[Node]] = {}
    for node in scratch_nodes:
        by_array.setdefault(str(node.param("array")), []).append(node)

    def ordered(a: int, b: int) -> bool:
        return bool(reach[a] & bit[b] or reach[b] & bit[a])

    out: list[Diagnostic] = []
    for array, nodes in sorted(by_array.items()):
        stores = [n for n in nodes if n.opcode is Opcode.SCRATCH_STORE]
        loads = [n for n in nodes if n.opcode is Opcode.SCRATCH_LOAD]
        for i, first in enumerate(stores):
            for second in stores[i + 1 :]:
                if not ordered(first.node_id, second.node_id):
                    pair = (first.node_id, second.node_id)
                    out.append(
                        Diagnostic(
                            code="RA020",
                            severity=Severity.WARNING,
                            message=(
                                f"scratch array '{array}' is written by both "
                                f"{first.label()} and {second.label()} with no "
                                "ordering between them"
                            ),
                            nodes=pair,
                            labels=_labels(index, pair),
                            hint="order the writes through a barrier() token",
                            data={"array": array},
                        )
                    )
        for store in stores:
            for load in loads:
                if not ordered(store.node_id, load.node_id):
                    pair = (store.node_id, load.node_id)
                    out.append(
                        Diagnostic(
                            code="RA021",
                            severity=Severity.WARNING,
                            message=(
                                f"scratch array '{array}' write {store.label()} is "
                                f"unordered against read {load.label()}"
                            ),
                            nodes=pair,
                            labels=_labels(index, pair),
                            hint=(
                                "pass a barrier() token as the load's 'order' "
                                "operand so the read waits for the writes"
                            ),
                            data={"array": array},
                        )
                    )
    return out


# ----------------------------------------------------------- shardability pass
@dataclass(frozen=True)
class ShardPlan:
    """How (or why not) one compiled kernel shards across cores.

    :func:`shard_plan` decides the cut once per kernel.  ``block`` is the
    block-cyclic shard block: the replica count rounded up to
    ``window_lcm``, so every shard is a union of whole transmission
    windows.  ``fallback_code``/``fallback_reason`` name the
    ``RA030``-``RA033`` finding when no legal multi-core cut exists.
    The analyzer's plan has one core; ``sim/multicore.py::plan_shards``
    applies a launch's core count to it.
    """

    block: int
    window_lcm: int
    fallback_code: str | None = None
    fallback_reason: str | None = None
    cores: int = 1

    @property
    def shardable(self) -> bool:
        return self.fallback_code is None

    @property
    def sharded(self) -> bool:
        return self.cores > 1


def shard_plan(index: KernelIndex) -> tuple[ShardPlan, Diagnostic]:
    """The kernel's :class:`ShardPlan` and the one diagnostic stating it.

    The finding is INFO: not being shardable is a property, not a defect
    (the launch transparently runs on one core).  Exactly one of
    ``RA030``/``RA031``/``RA032``/``RA033``/``RA034`` states the verdict;
    a fallback's message is the plan's ``fallback_reason``, which
    ``simulate`` records in ``stats.extra["shard_fallback_reason"]``.
    """
    num_threads = int(index.metadata.get("num_threads", 0))
    base_block = max(1, int(index.metadata.get("replicas", 1)))
    windows, reason = communication_windows(index)

    def fallback(block: int, lcm: int, diagnostic: Diagnostic) -> tuple[ShardPlan, Diagnostic]:
        plan = ShardPlan(block, lcm, diagnostic.code, diagnostic.message)
        return plan, diagnostic

    if reason is not None:
        if "transmission window" in reason:
            code, opcodes = "RA030", (Opcode.ELEVATOR, Opcode.ELDST)
            hint = "give every ELEVATOR/ELDST a bounded window= to enable sharding"
        else:
            code, opcodes = "RA031", (Opcode.BARRIER,)
            hint = "window the barrier so scratch traffic stays inside a shard"
        offenders = tuple(
            node.node_id
            for node in index.nodes_with_opcode(*opcodes)
            if node.param("window") is None
        )
        return fallback(
            base_block,
            1,
            Diagnostic(
                code=code,
                severity=Severity.INFO,
                message=reason,
                nodes=offenders,
                labels=_labels(index, offenders),
                hint=hint,
            ),
        )

    lcm = math.lcm(1, *windows)
    if windows and lcm >= num_threads:
        return fallback(
            base_block,
            lcm,
            Diagnostic(
                code="RA032",
                severity=Severity.INFO,
                message=(
                    f"transmission windows span the whole block "
                    f"(LCM {lcm} >= {num_threads} threads)"
                ),
                data={"window_lcm": lcm, "num_threads": num_threads},
            ),
        )
    aligned = -(-base_block // lcm) * lcm
    if aligned >= num_threads:
        return fallback(
            aligned,
            lcm,
            Diagnostic(
                code="RA033",
                severity=Severity.INFO,
                message=(
                    f"shard block of {aligned} leaves no work for a second core "
                    f"({num_threads} threads)"
                ),
                data={"block": aligned, "window_lcm": lcm, "num_threads": num_threads},
            ),
        )
    return ShardPlan(aligned, lcm), Diagnostic(
        code="RA034",
        severity=Severity.INFO,
        message=(
            f"window-aligned cut is legal: block "
            f"ceil({base_block}/{lcm})*{lcm} = {aligned} divides the "
            f"{num_threads}-thread block into whole windows (LCM {lcm})"
        ),
        data={
            "block": aligned,
            "window_lcm": lcm,
            "windows": sorted(set(windows)),
            "num_threads": num_threads,
        },
    )


# ---------------------------------------------- engine / replay-order pass
def pure_load_ancestors(index: KernelIndex) -> set[int] | None:
    """Memory issue points plus their ancestors when all ancestors are pure.

    This is the batched engines' replay-order stability condition: when
    every LOAD *and* every ELDST node's operand computation (index,
    predicate, optional ordering token) is pure/source-only, the issue
    cycle of every memory access is derivable before any access is
    classified, so the whole wave's access stream can be replayed in the
    event engine's order.  Returns ``None`` when some access operand
    depends on another memory access — the engines then fall back to
    per-node replay order.  The batched engine reads the result through
    ``analyze_kernel(compiled).prepass_nodes``, so the static verdict and
    the dynamic behaviour agree by construction.
    (Inter-thread-free graphs have no ELDST nodes, so for them this is
    exactly the original load-only condition.)
    """
    inputs, by_id = index.inputs, index.by_id
    accesses = index.nodes_with_opcode(Opcode.LOAD, Opcode.ELDST)
    prepass: set[int] = {access.node_id for access in accesses}
    visited: set[int] = set()
    for access in accesses:
        stack = [edge.src for edge in inputs[access.node_id]]
        while stack:
            nid = stack.pop()
            if nid in visited:
                continue
            opcode = by_id[nid].opcode
            if opcode not in PURE_OPCODES and opcode not in SOURCE_OPCODES:
                return None  # an access operand depends on a memory access
            visited.add(nid)
            stack.extend(edge.src for edge in inputs[nid])
    return prepass | visited


def _replay_order_diagnostics(index: KernelIndex, prepass: set[int] | None) -> Diagnostic:
    """The RA042/RA043 replay-order verdict for a batchable kernel."""
    if prepass is None:
        impure = tuple(
            access.node_id
            for access in index.nodes_with_opcode(Opcode.LOAD, Opcode.ELDST)
            if _index_touches_memory(index, access)
        )
        return Diagnostic(
            code="RA042",
            severity=Severity.INFO,
            message=(
                "a load index depends on another memory access; the batched "
                "engine replays loads per node instead of in event order"
            ),
            nodes=impure,
            labels=_labels(index, impure),
        )
    return Diagnostic(
        code="RA043",
        severity=Severity.INFO,
        message=(
            "every load index is pure; the batched engine replays the "
            "load stream in the event engine's exact order"
        ),
        data={"prepass_nodes": len(prepass)},
    )


def engine_diagnostics(index: KernelIndex, prepass: set[int] | None) -> list[Diagnostic]:
    """Classify the kernel for engine dispatch (all INFO).

    ``prepass`` is :func:`pure_load_ancestors` of ``index``.

    Exactly one of ``RA040`` (batched-eligible, no inter-thread nodes),
    ``RA044`` (window-batchable communicating kernel) or ``RA041``
    (event-only) is emitted; ``engine="auto"`` in :func:`repro.sim.simulate`
    dispatches on it; for either batched engine ``RA043``/``RA042``
    states whether the analytic cache model keeps the event engine's
    replay order or degrades to per-node replay.  ``RA041`` kernels
    additionally carry ``RA045`` naming the reason the batched path is
    out of reach (:func:`repro.graph.interthread.window_batch_problem`:
    a recurrence, or scratch levels that may interleave in time).
    """
    out: list[Diagnostic] = []
    interthread = tuple(
        node.node_id
        for node in index.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST, Opcode.BARRIER)
    )
    problem = window_batch_problem(index)
    if problem is not None:
        # Scratch levels that may interleave keep even an inter-thread-free
        # graph on the event engine.
        gated = interthread or tuple(
            node.node_id
            for node in index.nodes_with_opcode(Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE)
        )
        kind = "inter-thread" if interthread else "scratchpad"
        out.append(
            Diagnostic(
                code="RA041",
                severity=Severity.INFO,
                message=f"{len(gated)} {kind} node(s) require the event-driven engine",
                nodes=gated,
                labels=_labels(index, gated),
            )
        )
        out.append(
            Diagnostic(
                code="RA045",
                severity=Severity.INFO,
                message=f"not window-batchable: {problem}",
                data={"problem": problem},
            )
        )
        return out
    if interthread:
        windows, _ = communication_windows(index)
        out.append(
            Diagnostic(
                code="RA044",
                severity=Severity.INFO,
                message=(
                    f"{len(interthread)} inter-thread node(s) are feed-forward "
                    "and every scratch level is barrier-separated; eligible "
                    "for the window-batched engine"
                ),
                nodes=interthread,
                labels=_labels(index, interthread),
                # None when nothing is windowed (e.g. whole-block barriers).
                data={"window_lcm": math.lcm(*windows) if windows else None},
            )
        )
        out.append(_replay_order_diagnostics(index, prepass))
        return out
    out.append(
        Diagnostic(
            code="RA040",
            severity=Severity.INFO,
            message="no inter-thread nodes; eligible for the wave-batched engine",
        )
    )
    out.append(_replay_order_diagnostics(index, prepass))
    return out


def _index_touches_memory(index: KernelIndex, load: Node) -> bool:
    inputs = index.inputs
    stack = [edge.src for edge in inputs[load.node_id]]
    seen: set[int] = set()
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        if index.by_id[nid].opcode in MEMORY_OPCODES:
            return True
        stack.extend(edge.src for edge in inputs[nid])
    return False


# ------------------------------------------------------- critical-path pass
def critical_path_bound(compiled: "CompiledKernel") -> tuple[int, Diagnostic]:
    """Static lower bound on single-core cycles, with its diagnostic.

    Both engines obey: thread at injection position ``p`` becomes live at
    ``p // replicas``; a node fires only after all operands arrive
    (producer completion + routed edge latency) and completes at least
    one cycle later (memory nodes are floored at one cycle — hierarchy
    latencies only add).  The last-injected thread must still traverse
    the longest source-to-sink structural path, so

    ``cycles >= (threads - 1) // replicas + max over sinks of path``

    is a true lower bound for the event and batched engines alike on one
    core (sharding divides the injection term across cores).
    """
    index = compiled.index
    edge_latency, unit_latency, inputs = index.edge_latency, index.unit_latency, index.inputs

    # A thread retires when its effect nodes complete (the engines' sink
    # set) — not on Node.is_sink, since a STORE still produces an ack token.
    completion: dict[int, int] = {}
    longest_sink_path = 0
    for node in index.order:
        nid = node.node_id
        ready = 0
        if node.opcode is not Opcode.ELEVATOR:  # edges into elevators are temporal
            for src, _, _ in inputs[nid]:
                ready = max(ready, completion[src] + edge_latency[(src, nid)])
        # Hierarchy access latency is >= 1 cycle; its exact value varies.
        completion[nid] = ready + (1 if node.opcode in MEMORY_OPCODES else unit_latency[nid])
        if node.opcode in EFFECT_OPCODES:
            longest_sink_path = max(longest_sink_path, completion[nid])

    replicas = max(1, compiled.replicas)
    injection = (max(1, compiled.num_threads) - 1) // replicas
    bound = injection + longest_sink_path
    diagnostic = Diagnostic(
        code="RA050",
        severity=Severity.INFO,
        message=(
            f"single-core cycles >= {bound} "
            f"(injection {injection} + critical path {longest_sink_path})"
        ),
        data={
            "min_cycles": bound,
            "injection": injection,
            "critical_path": longest_sink_path,
            "replicas": replicas,
        },
    )
    return bound, diagnostic
