"""In-memory span recorder for the traced benchmark run.

The traced run measures each layer from outside: :class:`Instrumentation`
replaces the public functions of every layer (compiler passes, placement,
routing, analyzer, engines, Fermi baseline, power model, explore store,
serve canonicalisation, ...) with thin wrappers that record one span per
call, and installs a :class:`HostSpanTracer` — a ``ChromeTracer`` that
keeps only the wall-clock host-phase spans the batched engines already
emit (``prepass``, ``tag walk``, ``residue walk``, ``forwarding levels``,
``shard N``, ``wave@N``).  Nothing under ``src/`` changes; uninstalling
restores every original attribute.

A span is ``(id, name, start, end, thread, op, args)``.  Spans stay in
memory until the run ends; :func:`resolve_parents` then nests them per
thread by interval containment, and a span's self time is its duration
minus the durations of its direct children (children on one thread never
overlap, so that is the uncovered part of its interval).
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.obs.trace import ChromeTracer

#: Root span the workload loop opens around every timed op.
OP_SPAN = "bench.op"
#: Spans of the public entry points an op calls directly; their self time
#: is the part of the op that no finer span covers.
ENTRY_SPANS = frozenset(
    ("harness.run_workload", "sim.event", "sim.batched", "sim.window_batched", "sim.multicore")
)

#: Engine host-span names (as emitted by ``src/repro/sim``) -> layer names.
_HOST_LAYERS = {
    "prepass": "sim.host.prepass",
    "tag walk": "sim.host.tag_walk",
    "residue walk": "sim.host.residue_walk",
    "forwarding levels": "sim.host.forwarding",
}

#: Containment slack: host spans are converted from the tracer's
#: microsecond clock, so their edges can differ from ours by rounding.
_EPS = 1e-6


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    thread: int
    op: int | None
    args: dict[str, Any] | None = None
    parent: int | None = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - self.child_time)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "op": self.op,
            "parent": self.parent,
            "self": self.self_time,
            "args": self.args or {},
        }


@dataclass
class SpanLog:
    """Append-only span store shared by every thread of the process."""

    spans: list[Span] = field(default_factory=list)
    _ids: Any = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)

    @property
    def current_op(self) -> int | None:
        return getattr(self._local, "op", None)

    @current_op.setter
    def current_op(self, op: int | None) -> None:
        self._local.op = op

    def add(
        self, name: str, start: float, end: float, args: dict[str, Any] | None = None
    ) -> None:
        # list.append and next() on a count are atomic under the GIL.
        self.spans.append(
            Span(next(self._ids), name, start, end, threading.get_ident(), self.current_op, args)
        )


class HostSpanTracer(ChromeTracer):
    """A ChromeTracer that forwards host-phase spans and drops cycle events.

    The engines bind the ambient tracer once per simulator; cycle-domain
    events (one per firing on the event engine) are discarded here so the
    traced run pays a call, not a stored event, per hook.
    """

    def __init__(self, log: SpanLog) -> None:
        super().__init__()
        self._log = log

    def event(self, *args: Any, **kwargs: Any) -> None:
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    def wall_event(self, name: str, start_us: float, args: dict[str, Any] | None = None) -> None:
        now = perf_counter()
        start = now - (self.clock() - start_us) / 1e6
        if name.startswith("shard "):
            layer = "sim.host.shard"
        elif name.startswith("wave@"):
            layer = "sim.host.wave"
        else:
            layer = _HOST_LAYERS.get(name, "sim.host." + name.replace(" ", "_"))
        self._log.add(layer, start, now, dict(args) if args else None)


def _simulate_layer(result: Any) -> str:
    """Name a simulate span after what ran: multicore, or the resolved engine."""
    if result.cores > 1:
        return "sim.multicore"
    return "sim." + result.engine.replace("-", "_")


def _targets() -> list[tuple[Any, str, str, Callable[[Any], str] | None]]:
    """(owner, attribute, span name, result-dependent namer) per wrapped function."""
    import repro.analyze.manager as analyze_manager
    import repro.compiler.pipeline as pipeline
    import repro.harness.experiments as experiments
    import repro.serve.handlers as handlers
    import repro.sim as sim
    from repro.compiler.mapper.placement import AnnealingRefiner, GreedyPlacer
    from repro.compiler.passes.cascade import CascadeElevatorsPass
    from repro.compiler.passes.constant_fold import ConstantFoldPass
    from repro.compiler.passes.dce import DeadCodeEliminationPass
    from repro.compiler.passes.eldst_buffer import EldstBufferPass
    from repro.compiler.passes.replicate import ReplicatePass
    from repro.explore.cache import ResultCache
    from repro.workloads.base import PreparedWorkload, Workload

    return [
        (Workload, "prepare", "workloads.prepare", None),
        (PreparedWorkload, "launch", "workloads.launch", None),
        (PreparedWorkload, "fermi_program", "workloads.launch", None),
        (PreparedWorkload, "check_outputs", "harness.check", None),
        (experiments, "run_workload", "harness.run_workload", None),
        (experiments.RunResult, "to_record", "harness.record", None),
        (experiments, "compile_kernel", "compiler.compile", None),
        (handlers, "compile_kernel", "compiler.compile", None),
        (ConstantFoldPass, "run", "compiler.pass.constant_fold", None),
        (DeadCodeEliminationPass, "run", "compiler.pass.dce", None),
        (CascadeElevatorsPass, "run", "compiler.pass.cascade", None),
        (EldstBufferPass, "run", "compiler.pass.eldst_buffer", None),
        (ReplicatePass, "run", "compiler.pass.replicate", None),
        (pipeline, "place_graph", "compiler.place", None),
        (GreedyPlacer, "place", "compiler.place.greedy", None),
        (AnnealingRefiner, "refine", "compiler.place.anneal", None),
        (pipeline, "route_placement", "compiler.route", None),
        (analyze_manager, "analyze_kernel", "analyze.kernel", None),
        (experiments, "analyze_kernel", "analyze.kernel", None),
        (handlers, "analyze_kernel", "analyze.kernel", None),
        (experiments, "simulate", "sim", _simulate_layer),
        (sim, "simulate", "sim", _simulate_layer),
        (experiments, "run_fermi", "gpgpu.fermi", None),
        (experiments, "cgra_energy", "power.energy", None),
        (experiments, "fermi_energy", "power.energy", None),
        (handlers, "execute_point", "explore.execute_point", None),
        (ResultCache, "get", "explore.store_get", None),
        (ResultCache, "put", "explore.store_put", None),
        (handlers, "canonicalize_simulate", "serve.canonicalize", None),
        (handlers, "canonicalize_compile", "serve.canonicalize", None),
        (handlers.SimulationService, "characterization", "serve.characterization", None),
    ]


class Instrumentation:
    """Context manager: wrap every layer's public functions, record spans.

    Also keeps what the per-layer count metrics need from the wrapped
    calls: compiled kernels (nodes/edges), placements (wire length, taken
    after the run so it is not billed to the compiler) and annealing
    iteration counts.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.tracer = HostSpanTracer(log)
        self.kernels: list[Any] = []
        self.placements: list[Any] = []
        self.anneal_moves = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self._tracing: Any = None

    def _wrap(self, fn: Callable, name: str, namer: Callable[[Any], str] | None) -> Callable:
        log = self.log

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                log.add(namer(result) if namer and result is not None else name, start, end)
                if result is not None:
                    self._keep(name, args, result)

        return wrapper

    def _keep(self, name: str, args: tuple, result: Any) -> None:
        if name == "compiler.compile":
            self.kernels.append(result)
        elif name == "compiler.place":
            self.placements.append(result)
        elif name == "compiler.place.anneal":
            self.anneal_moves += int(args[0].iterations)

    def __enter__(self) -> "Instrumentation":
        from repro.obs.trace import tracing

        for owner, attr, name, namer in _targets():
            # Class attributes may be inherited: restore by deleting ours.
            self._saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, namer))
        self._tracing = tracing(self.tracer)
        self._tracing.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._tracing.__exit__(*exc_info)
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def resolve_parents(spans: list[Span]) -> None:
    """Nest spans per thread by interval containment; fill parent/child_time."""
    by_thread: dict[int, list[Span]] = {}
    for span in spans:
        by_thread.setdefault(span.thread, []).append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.start, -s.end))
        stack: list[Span] = []
        for span in thread_spans:
            while stack and not (
                stack[-1].start - _EPS <= span.start and span.end <= stack[-1].end + _EPS
            ):
                stack.pop()
            if stack:
                span.parent = stack[-1].span_id
                stack[-1].child_time += span.duration
            stack.append(span)
