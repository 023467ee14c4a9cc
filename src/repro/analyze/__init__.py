"""Compile-time kernel analyzer with structured ``RA0xx`` diagnostics.

``analyze_kernel(compiled)`` statically derives the facts the dynamic
layers otherwise discover mid-simulation — deadlock cycles, scratchpad
races, window-LCM shard legality, engine eligibility and replay-order
stability, and a critical-path lower bound on cycles — and the dynamic
layers (``sim/cycle.py`` auto dispatch, ``sim/multicore.py`` planning,
``sim/batched.py`` replay order) consume these verdicts instead of
re-deriving them.  See ROADMAP.md "Kernel static analysis" for the code
table and the analyzer-vs-dynamic contract.

Import discipline: this package is imported by ``repro.graph.validate``
while ``repro.graph`` is still initialising, so every module here
imports only graph *sub*modules, and the sim layer only lazily.
"""

from repro.analyze.diagnostics import CODES, Diagnostic, Severity
from repro.analyze.manager import AnalysisResult, analyze_kernel
from repro.analyze.passes import (
    ShardPlan,
    critical_path_bound,
    deadlock_diagnostics,
    engine_diagnostics,
    pure_load_ancestors,
    scratch_race_diagnostics,
    shard_plan,
)
from repro.analyze.structure import structure_diagnostics

__all__ = [
    "AnalysisResult",
    "CODES",
    "Diagnostic",
    "Severity",
    "ShardPlan",
    "analyze_kernel",
    "critical_path_bound",
    "deadlock_diagnostics",
    "engine_diagnostics",
    "pure_load_ancestors",
    "scratch_race_diagnostics",
    "shard_plan",
    "structure_diagnostics",
]
