"""Observability for the reproduction: tracing, metrics, logging, profiles.

The package is the instrumentation seam of the whole stack:

* :mod:`repro.obs.trace` — Chrome trace-event timeline capture with a
  zero-overhead-when-off ambient tracer (engines guard every hook with
  one ``is not None`` branch); ring-buffer mode bounds memory.
* :mod:`repro.obs.metrics` — process-local counters/histograms and
  the ``with timer("compile")`` phase spans the harness threads into
  run records.
* :mod:`repro.obs.log` — stdlib logging under the ``repro.*`` namespace
  with a one-call :func:`~repro.obs.log.configure` entry point.
* :mod:`repro.obs.profile` — per-node cycle attribution and the
  PE-occupancy heatmap derived from an exported trace.

CLI: ``python -m repro.obs trace <workload> [--variant dmt] [--out
trace.json] [--profile]`` runs one workload under a tracer and writes a
Perfetto-loadable trace; ``benchmarks/bench_obs_overhead.py`` gates the
tracing-off overhead at <= 2% on the engine-speedup rows.
"""

from repro.obs.log import configure, get_logger
from repro.obs.metrics import REGISTRY, MetricsRegistry, timer
from repro.obs.profile import node_profile, render_heatmap, render_node_profile, total_activity
from repro.obs.trace import ChromeTracer, active_mode, active_tracer, tracing

__all__ = [
    "ChromeTracer",
    "MetricsRegistry",
    "REGISTRY",
    "active_mode",
    "active_tracer",
    "configure",
    "get_logger",
    "node_profile",
    "render_heatmap",
    "render_node_profile",
    "timer",
    "total_activity",
    "tracing",
]
