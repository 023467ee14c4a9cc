"""Simulators of the (d)MT-CGRA execution model.

:func:`simulate` is the single entry point.  It resolves the engine,
plans the multi-core cut and returns a :class:`SimulationResult` whose
``engine``/``cores`` fields record what actually ran::

    from repro.sim import simulate
    result = simulate(compiled, launch)            # engine="auto"
    result.engine                                   # "batched" | "window-batched" | "event"
    result.array("C"), result.cycles, result.counters()

Three execution layers share one semantics:

* :mod:`repro.sim.functional` — the untimed, demand-driven interpreter;
  the correctness oracle every other engine is tested against.
* :mod:`repro.sim.cycle` — the event-driven, cycle-level model: one heap
  event per token per edge.  Exact, and the only engine that resolves
  inter-thread *recurrences* (cyclic ELEVATOR chains), the full cache/
  DRAM behaviour and token-buffer backpressure.
* :mod:`repro.sim.batched` — the batched NumPy engine for graphs whose
  inter-thread traffic is feed-forward (none at all, or ELEVATOR/ELDST/
  BARRIER nodes whose consumer→producer maps are static and whose
  barriers carry bounded transmission windows): each static node is
  evaluated once over a vector of all the core's thread IDs, with
  completion times computed analytically from edge latencies and
  issue-port contention, token traffic resolved as vector gathers and
  segmented reductions over window groups, and memory classified by the
  capacity/conflict-aware analytic cache model of
  :mod:`repro.sim.analytic_cache` (set-associative LRU on the shared
  :mod:`repro.memory.tagcore` core, replayed in the event engine's
  access order and mirrored into the hierarchy counters — exactly equal
  to the event engine's counters on order-stable traces).  One class
  serves both batched verdicts and reports the one it runs.

:func:`simulate` takes ``engine="auto"`` or ``engine="event"``.
``"event"`` forces the exact engine; ``"auto"`` runs the static
analyzer's verdict — ``RA040`` inter-thread-free → batched, ``RA044``
window-batchable → window-batched, ``RA041`` otherwise → event — so the
static verdict IS the dispatch decision, and the batched class names
itself after it.  All engines produce bit-identical outputs and
identical operation counters.

:mod:`repro.sim.multicore` plans the multi-core cut: a launch is
sharded block-cyclically across ``SystemConfig.cores`` simulated cores
(shard boundaries aligned to the transmission-window LCM), each core
with a private memory hierarchy, and per-core stats combined with
:meth:`ExecutionStats.merge`.  ``simulate(cores=...)`` runs the shards
through the same path as a single-core run; kernels that admit no legal
cut fall back to one core with the reason recorded in ``stats.extra``.

Every engine's ``run()`` and :func:`simulate` return the one timed
result type, :class:`SimulationResult`; :func:`run_functional` is the
untimed oracle.
"""

from repro.sim.analytic_cache import AnalyticMemoryModel
from repro.sim.api import ENGINES, simulate
from repro.sim.batched import BatchedSimulator
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import FunctionalResult, FunctionalSimulator, run_functional
from repro.sim.launch import KernelLaunch
from repro.sim.multicore import shard_threads
from repro.sim.result import SimulationResult
from repro.sim.stats import ExecutionStats

__all__ = [
    "AnalyticMemoryModel",
    "BatchedSimulator",
    "CycleSimulator",
    "ENGINES",
    "ExecutionStats",
    "FunctionalResult",
    "FunctionalSimulator",
    "KernelLaunch",
    "SimulationResult",
    "run_functional",
    "shard_threads",
    "simulate",
]
