"""Window-group batching for communicating dMT kernels.

The wave-batched engine (:mod:`repro.sim.batched`) requires an
inter-thread-free graph: ELEVATOR/ELDST/BARRIER nodes couple threads, so
a thread's walk through the graph is no longer independent.  But the
coupling is *static* — each inter-thread node's consumer→producer map is
a pure function of linear thread IDs (:func:`elevator_source_vec`), and
a BARRIER's groups are the ``tid // window`` transmission windows of
Sec. 3.2 — so when the traffic is feed-forward
(:func:`repro.graph.interthread.window_batch_problem`), token resolution
is a gather over per-thread vectors rather than an event exchange:

* **ELEVATOR** — consumers with a valid source gather the producer's
  value/issue directly (``value[src]``, ``issue[src] + elevator
  latency``); consumers without one receive the fallback constant at
  their injection cycle, exactly the event engine's ``_inject_thread``
  path.
* **ELDST** — the predicate (plus invalid-source threads) selects the
  *loading heads*; only their indices touch the memory system.  The
  forwarding chain ``head → head+Δ → …`` is a static pointer structure,
  so values propagate by level (chain depth) with the event engine's
  exact timing recurrence ``complete[t] = max(issue[t],
  complete[src]) + L``.
* **BARRIER** — windows partition the (sorted) thread vector into
  contiguous groups; the release cycle is a segmented maximum of the
  group's arrival cycles plus the control latency.

All threads of the core run as **one wave** (``wave_group`` is the whole
thread subset), so a forwarding chain or barrier group can never be
split across wave boundaries.  Thread subsets (multi-core shards) are
accepted under the same closure rule as the event engine
(:func:`thread_subset_problem`: a union of whole transmission windows).

Outputs are bit-identical to the event engine and all operation
counters (op counts, token traffic, ``elevator_retags``,
``elevator_constants``, ``eldst_forwards``, ``eldst_memory_loads``,
``barrier_arrivals``, LVC/spill counters, ...) are equal by
construction; cycle counts and memory-hierarchy counters are analytic
estimates exactly as for the base engine (``barrier_wait_cycles`` is a
timing statistic and inherits the same estimate status as the cycle
count).  Fidelity is measured by ``benchmarks/bench_batched_fidelity.py``
and gated by ``tests/sim/test_fidelity.py``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.arch.lvc import LiveValueCache
from repro.compiler.pipeline import CompiledKernel
from repro.errors import DeadlockError, SimulationError
from repro.graph.interthread import (
    elevator_source_vec,
    thread_subset_problem,
    window_batch_problem,
)
from repro.graph.node import Node
from repro.graph.opcodes import DType, Opcode
from repro.graph.semantics import coerce
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.obs.trace import MEM_LANE
from repro.sim.batched import _NP_DTYPE, BatchedSimulator, _coerce_vec
from repro.sim.cycle import unit_latency
from repro.sim.launch import KernelLaunch

__all__ = ["WindowBatchedSimulator"]


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


class WindowBatchedSimulator(BatchedSimulator):
    """Wave-batched engine extended to feed-forward communicating graphs.

    Constructed for graphs where
    :func:`repro.graph.interthread.window_batch_problem` returns ``None``
    — the same predicate behind the analyzer's ``RA044``/``RA045``
    verdict and ``engine="auto"`` dispatch, so eligibility is decided in
    exactly one place.
    """

    engine = "window-batched"

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
        super().__init__(
            compiled,
            launch,
            hierarchy=hierarchy,
            max_cycles=max_cycles,
            wave_group=wave_group,
            thread_ids=thread_ids,
            memory=memory,
            dram_contention=dram_contention,
            trace_pid=trace_pid,
        )
        if self._thread_ids.size != self.num_threads:
            problem = thread_subset_problem(
                self.graph, self._thread_ids.tolist(), self.num_threads
            )
            if problem is not None:
                raise SimulationError(
                    f"cannot simulate this thread subset of '{self.graph.name}': "
                    f"{problem}"
                )
        # Forwarding chains and barrier groups must never straddle a wave
        # boundary, so the whole subset runs as a single wave.
        self.wave_group = max(1, int(self._thread_ids.size))
        self._lvc_latency = LiveValueCache().access_latency
        self._it = {
            node.node_id: self._build_interthread_table(node)
            for node in self._order
            if node.opcode in (Opcode.ELEVATOR, Opcode.ELDST)
        }

    def _reject_unsupported(self, compiled: CompiledKernel) -> None:
        problem = window_batch_problem(compiled.graph)
        if problem is not None:
            raise SimulationError(
                f"'{compiled.graph.name}' is not window-batchable: {problem}; "
                "use engine='auto' to dispatch to a capable engine automatically"
            )

    # --------------------------------------------------------- static tables
    def _build_interthread_table(self, node: Node) -> _InterthreadTable:
        t = self._thread_ids
        src = elevator_source_vec(
            node, t, self.geometry.block_dim, self.num_threads
        )
        # Map global source TIDs to rows of this core's thread vector.
        # Shards need not be contiguous, so go through a sorted view.
        perm = np.argsort(t, kind="stable")
        t_sorted = t[perm]
        loc = np.searchsorted(t_sorted, np.where(src >= 0, src, 0))
        loc = np.minimum(loc, t.size - 1)
        found = (src >= 0) & (t_sorted[loc] == np.where(src >= 0, src, 0))
        if bool((~found & (src >= 0)).any()):
            # Closed subsets (checked in __init__) keep every source
            # in-subset; a miss here would be an engine bug.
            raise SimulationError(
                f"{node.label()} communicates with a thread outside this "
                "core's subset"
            )
        src_pos = np.where(found, perm[loc], np.int64(-1))
        if node.opcode is Opcode.ELDST:
            delta = abs(int(node.param("delta")))
            receives = (src_pos >= 0) & (t == src + delta)
        else:
            receives = src_pos >= 0
        return _InterthreadTable(src_pos=src_pos, receives=receives)

    # ------------------------------------------------------------- execution
    def _execute(
        self, node: Node, tids: np.ndarray, operands: list[np.ndarray], issue: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        op = node.opcode
        if op is Opcode.ELEVATOR:
            return self._execute_elevator_vec(node, operands, issue)
        if op is Opcode.ELDST:
            return self._execute_eldst_vec(node, operands, issue)
        if op is Opcode.BARRIER:
            return self._execute_barrier_vec(node, tids, operands, issue)
        return super()._execute(node, tids, operands, issue)

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
            complete_valid = complete_valid + 2.0 * self._lvc_latency
            self.stats.spilled_tokens += n_valid
            self.stats.lvc_accesses += 2 * n_valid
        const = coerce(node.param("const"), node.dtype)
        value = np.where(valid, operands[0][gather], const)
        avail = np.where(valid, complete_valid, self._wave_inject + latency)
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
        """Propagate values and timing down the static forwarding chains.

        Timing follows the event engine exactly: a head completes at its
        memory load's completion plus the eLDST completion latency ``L``
        (issue latency plus spill/external-buffer extra); a forwarded
        thread at ``complete[t] = max(issue[t], complete[src]) + L``.
        """
        table = self._it[node.node_id]
        n = issue.size
        lat = self.config.latency
        extra = 0.0
        if node.param("spilled"):
            extra = 2.0 * self._lvc_latency
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

        # Chain depth of every row (heads are depth 0: they depend on
        # nobody for timing or data, whatever their position in the
        # forwarding chain).
        dep = np.where(heads, np.int64(-1), table.src_pos)
        pos = np.zeros(n, dtype=np.int64)
        cursor = dep.copy()
        for _ in range(n + 1):
            active = cursor >= 0
            if not bool(active.any()):
                break
            pos[active] += 1
            cursor[active] = dep[cursor[active]]
        else:  # pragma: no cover - window_batch_problem rejects recurrences
            raise DeadlockError(
                f"{node.label()} forwarding chain does not terminate"
            )

        backing = self.memory.array(str(node.param("array")))
        value = np.zeros(n, dtype=_NP_DTYPE[node.dtype])
        complete = np.empty(n)
        value[heads] = _coerce_vec(backing[idx[heads]], node.dtype)
        complete[heads] = load_complete[heads] + latency

        depth = int(pos.max(initial=0))
        if depth > 0:
            fwd_begin = self._trace.clock() if self._trace is not None else 0.0
            rows_by_depth = np.argsort(pos, kind="stable")
            bounds = np.cumsum(np.bincount(pos))[:-1]
            for rows in np.split(rows_by_depth, bounds)[1:]:
                src = dep[rows]
                value[rows] = value[src]
                complete[rows] = np.maximum(issue[rows], complete[src]) + latency
            if self._trace is not None:
                self._trace.wall_event(
                    "forwarding levels", fwd_begin, args={"depth": depth}
                )

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
        return operands[0], per_thread + float(self._lvc_latency)

    # --------------------------------------------------------------- prepass
    def _prepass_access(
        self, node: Node, operands: list[np.ndarray], issue: np.ndarray
    ):
        if node.opcode is not Opcode.ELDST:
            return super()._prepass_access(node, operands, issue)
        heads, idx = self._eldst_heads(node, operands)
        spec = self.memory.spec(str(node.param("array")))
        addresses = spec.base_address + idx * spec.elem_bytes
        return (node, issue, idx, addresses, heads)

    def _finish_prepassed(
        self, node: Node, entry: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        if node.opcode is not Opcode.ELDST:
            return super()._finish_prepassed(node, entry)
        issue, idx, load_complete, heads = entry
        return self._eldst_resolve(node, issue, idx, heads, load_complete)
