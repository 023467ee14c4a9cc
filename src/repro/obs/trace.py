"""Timeline tracing: Chrome trace-event capture for the simulator stack.

The engines are instrumented with a *zero-overhead-when-off* seam: every
hook site binds the ambient tracer once at construction time
(``self._trace = active_tracer()``) and guards each event with a single
``if self._trace is not None`` branch.  With no tracer installed — the
default — the hot paths pay one pointer comparison per hook and nothing
else; no event objects are built, no strings formatted.

Install a tracer around a run with the :func:`tracing` context manager::

    tracer = ChromeTracer()              # or ChromeTracer(limit=100_000)
    with tracing(tracer):
        result = simulate(compiled, launch)
    tracer.export_file("trace.json")

The export is standard Chrome trace-event JSON (the "JSON array format"
with process/thread metadata), loadable in Perfetto or
``chrome://tracing``:

* **pid** is the simulated core (multi-core shards get one process
  each); :data:`HOST_PID` is a separate process carrying *wall-clock*
  engine-phase spans (wave sweep, prepass, tag walk, residue walk,
  forwarding levels) in microseconds since the tracer was created.
* **tid** is the lane: the physical PE hosting a node (from the compiled
  placement, falling back to the node id for unmapped graphs), plus
  dedicated lanes for injection, the batched memory stream and per-core
  activity spans.
* Cycle-domain events use ``ts`` = simulated cycle (so one trace-viewer
  microsecond reads as one cycle); wall-clock spans live only under
  :data:`HOST_PID` and use real microseconds.  The two domains share a
  file but never a process lane.

Two counter tracks are derived at export time from the duration events —
no per-cycle sampling happens during simulation:

* ``occupancy`` — concurrently active op events, weighted by each
  event's ``args["count"]`` (the batched engines emit one event per node
  per wave covering ``count`` threads);
* ``outstanding_mshrs`` — concurrently in-flight memory accesses,
  derived the same way from the ``mem`` category.

A bounded ring buffer (``ChromeTracer(limit=N)``) keeps the newest ``N``
events and counts the overwritten ones in ``dropped``, capping memory on
big runs; :func:`active_mode` reports ``"off"``/``"ring"``/``"full"``
and is what ``simulate()`` records into ``stats.extra["trace"]``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "HOST_PID",
    "INJECT_LANE",
    "MEM_LANE",
    "CORE_LANE",
    "ChromeTracer",
    "active_mode",
    "active_tracer",
    "tracing",
]

#: Synthetic process id for wall-clock engine-phase spans.
HOST_PID = 1_000_000
#: Synthetic lanes (thread ids) for events with no hosting PE.
INJECT_LANE = 1_000_000
MEM_LANE = 1_000_001
CORE_LANE = 1_000_002

_LANE_NAMES = {INJECT_LANE: "inject", MEM_LANE: "memory", CORE_LANE: "core"}

#: Cap on the number of change points emitted per derived counter track;
#: beyond it the sweep is thinned evenly so exports stay viewer-friendly.
_MAX_COUNTER_POINTS = 20_000


class ChromeTracer:
    """Recording tracer producing Chrome trace-event JSON.

    ``limit`` bounds the event buffer: the newest ``limit`` events are
    kept (ring mode) and older ones are dropped, with the drop count
    reported in ``dropped`` and in the export's ``otherData``.
    """

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("ring-buffer limit must be >= 1")
        self.limit = limit
        self.dropped = 0
        # Raw events as tuples (name, cat, ph, ts, dur, pid, tid, args);
        # dicts are only built at export time.
        self._events: deque[tuple] | list[tuple]
        self._events = deque(maxlen=limit) if limit is not None else []
        # (pid, None) -> process name; (pid, tid) -> lane name.
        self._names: dict[tuple[int, int | None], str] = {}
        self._t0 = time.perf_counter()

    # ----------------------------------------------------------------- state
    @property
    def mode(self) -> str:
        return "ring" if self.limit is not None else "full"

    def __len__(self) -> int:
        return len(self._events)

    # ---------------------------------------------------------------- events
    def _append(self, record: tuple) -> None:
        if self.limit is not None and len(self._events) == self.limit:
            self.dropped += 1
        self._events.append(record)

    def event(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float = 0.0,
        pid: int = 0,
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """One complete-duration ("X") event in the cycle domain."""
        self._append((name, cat, "X", float(ts), max(0.0, float(dur)), pid, tid, args))

    def instant(
        self,
        name: str,
        cat: str,
        ts: float,
        pid: int = 0,
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """One instant ("i") event in the cycle domain."""
        self._append((name, cat, "i", float(ts), 0.0, pid, tid, args))

    # ------------------------------------------------------- wall-clock spans
    def clock(self) -> float:
        """Microseconds of wall clock since the tracer was created."""
        return (time.perf_counter() - self._t0) * 1e6

    def wall_event(
        self, name: str, start_us: float, args: dict[str, Any] | None = None
    ) -> None:
        """Close a wall-clock span opened at ``clock()`` time ``start_us``."""
        now = self.clock()
        self._append((name, "host", "X", start_us, max(0.0, now - start_us), HOST_PID, 0, args))

    # ------------------------------------------------------------- metadata
    def set_process_name(self, pid: int, name: str) -> None:
        self._names[(pid, None)] = name

    def set_lane_name(self, pid: int, tid: int, name: str) -> None:
        self._names[(pid, tid)] = name

    # --------------------------------------------------------------- export
    def events(self) -> list[dict[str, Any]]:
        """The raw captured events as trace-event dicts (no metadata)."""
        out = []
        for name, cat, ph, ts, dur, pid, tid, args in self._events:
            record: dict[str, Any] = {
                "name": name,
                "cat": cat,
                "ph": ph,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            if ph == "X":
                record["dur"] = dur
            if ph == "i":
                record["s"] = "t"
            if args:
                record["args"] = dict(args)
            out.append(record)
        return out

    def _metadata_events(self) -> list[dict[str, Any]]:
        seen_pids = {e[5] for e in self._events}
        seen_lanes = {(e[5], e[6]) for e in self._events}
        meta: list[dict[str, Any]] = []
        for (pid, tid), name in self._names.items():
            if tid is None:
                meta.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "args": {"name": name},
                    }
                )
                seen_pids.discard(pid)
            else:
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": name},
                    }
                )
                seen_lanes.discard((pid, tid))
        # Default names for anything the engines did not label explicitly.
        for pid in sorted(seen_pids):
            name = "host (wall clock)" if pid == HOST_PID else f"core {pid}"
            meta.append(
                {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
            )
        for pid, tid in sorted(seen_lanes):
            name = _LANE_NAMES.get(tid, f"PE {tid}")
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return meta

    def _counter_track(self, cat: str, track: str) -> list[dict[str, Any]]:
        """Derive one per-process counter track with a boundary sweep.

        Each duration event of category ``cat`` contributes
        ``args["count"]`` (default 1) between its start and end; the
        cumulative sum over the sorted change points is the counter
        value, emitted as "C" events at every change.
        """
        deltas: dict[int, dict[float, float]] = {}
        for name, ecat, ph, ts, dur, pid, tid, args in self._events:
            if ecat != cat or ph != "X" or pid == HOST_PID:
                continue
            weight = float((args or {}).get("count", 1))
            per_pid = deltas.setdefault(pid, {})
            per_pid[ts] = per_pid.get(ts, 0.0) + weight
            end = ts + max(dur, 1.0)
            per_pid[end] = per_pid.get(end, 0.0) - weight
        out: list[dict[str, Any]] = []
        for pid, per_pid in sorted(deltas.items()):
            points = sorted(per_pid.items())
            if len(points) > _MAX_COUNTER_POINTS:
                step = len(points) / _MAX_COUNTER_POINTS
                points = [points[int(i * step)] for i in range(_MAX_COUNTER_POINTS)]
            level = 0.0
            for ts, delta in points:
                level += delta
                out.append(
                    {
                        "name": track,
                        "cat": cat,
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "args": {track: max(0.0, round(level, 6))},
                    }
                )
        return out

    def export(self) -> dict[str, Any]:
        """The complete trace as a Chrome trace-event JSON object."""
        trace_events = self._metadata_events()
        trace_events.extend(self.events())
        trace_events.extend(self._counter_track("op", "occupancy"))
        trace_events.extend(self._counter_track("mem", "outstanding_mshrs"))
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "mode": self.mode,
                "events": len(self._events),
                "dropped": self.dropped,
                "timeDomains": {
                    "cycle": "ts is the simulated cycle (all pids except the host)",
                    "host": f"ts is wall-clock microseconds (pid {HOST_PID})",
                },
            },
        }

    def export_file(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)
        return path


# -------------------------------------------------------------- ambient state
_ACTIVE: ChromeTracer | None = None


def active_tracer() -> ChromeTracer | None:
    """The currently-installed tracer, or ``None`` when tracing is off.

    Engines bind this once at construction; the ``None`` return is the
    whole zero-overhead-off design — hot paths guard each hook with a
    single ``is not None`` branch.
    """
    return _ACTIVE


def active_mode() -> str:
    """Resolved tracer mode: ``"off"``, ``"ring"`` or ``"full"``."""
    return _ACTIVE.mode if _ACTIVE is not None else "off"


@contextmanager
def tracing(tracer: ChromeTracer | None) -> Iterator[ChromeTracer | None]:
    """Install ``tracer`` as the ambient tracer for the duration.

    ``tracing(None)`` forces tracing off inside the block (used by the
    overhead benchmark to pin the structural baseline).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
