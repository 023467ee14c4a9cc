"""Process-local metrics: counters, histograms and phase timers.

One module-level :data:`REGISTRY` instruments the pipeline phases
(compile → analyze → simulate → report, see
:func:`repro.harness.experiments.run_workload`); anything else in the
process may register its own counters under dotted names.  The registry
is deliberately tiny — plain dicts, no locks, no export protocol — the
snapshot is a flat JSON-able dict that rides benchmark records and
campaign reports.

Usage::

    from repro.obs.metrics import REGISTRY, timer

    REGISTRY.inc("explore.points")
    with timer("compile") as span:
        compiled = compile_kernel(graph)
    print(span.seconds)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

__all__ = ["Histogram", "MetricsRegistry", "REGISTRY", "TimerSpan", "timer"]


@dataclass
class Histogram:
    """Streaming summary of one observed quantity (no buckets kept)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


@dataclass
class TimerSpan:
    """Handle yielded by :meth:`MetricsRegistry.timer`; ``seconds`` is
    set when the ``with`` block exits (0.0 while still inside)."""

    name: str
    seconds: float = 0.0


@dataclass
class MetricsRegistry:
    """Counters and histograms for one process."""

    counters: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    # ---------------------------------------------------------------- update
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(amount)

    def observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, Histogram()).observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[TimerSpan]:
        """Time a phase; the duration lands in the ``timer.<name>``
        histogram and on the yielded :class:`TimerSpan`."""
        span = TimerSpan(name=name)
        start = perf_counter()
        try:
            yield span
        finally:
            span.seconds = perf_counter() - start
            self.observe(f"timer.{name}", span.seconds)

    # ----------------------------------------------------------------- query
    def counter(self, name: str) -> float:
        """Current value of one counter (0.0 if it never incremented)."""
        return self.counters.get(name, 0.0)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``counters[numerator] / counters[denominator]``, 0.0 when empty.

        The shape every hit-ratio wants: ``ratio("serve.cache.hits",
        "serve.requests")`` never divides by zero on a fresh registry.
        """
        total = self.counters.get(denominator, 0.0)
        return self.counters.get(numerator, 0.0) / total if total else 0.0

    def snapshot(self, prefix: str | None = None) -> dict[str, Any]:
        """Flat JSON-able view: ``counter.*`` and ``<hist>.*``.

        ``prefix`` restricts the view to metric names starting with it
        (e.g. ``snapshot("serve.")`` for one subsystem's corner of a
        shared registry).
        """

        def keep(name: str) -> bool:
            return prefix is None or name.startswith(prefix)

        out: dict[str, Any] = {}
        for name, value in sorted(self.counters.items()):
            if keep(name):
                out[f"counter.{name}"] = value
        for name, hist in sorted(self.histograms.items()):
            if keep(name):
                for stat, value in hist.as_dict().items():
                    out[f"{name}.{stat}"] = value
        return out

    def reset(self) -> None:
        self.counters.clear()
        self.histograms.clear()


#: The process-wide registry the pipeline phases report into.
REGISTRY = MetricsRegistry()


def timer(name: str):
    """``with timer("compile"):`` — shorthand for ``REGISTRY.timer``."""
    return REGISTRY.timer(name)
