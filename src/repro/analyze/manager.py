"""Run the analyzer's passes once per compiled kernel and keep the verdicts.

:func:`analyze_kernel` is the single entry point.  It runs the ordered
passes (deadlock, scratch-race, shardability, engine, critical path)
over a compiled kernel's :class:`~repro.graph.index.KernelIndex` and
returns an :class:`AnalysisResult` whose *verdict* fields are what the
dynamic layers consume:

* ``result.engine`` — what ``engine="auto"`` dispatch resolves to;
* ``result.order_stable`` / ``result.prepass_nodes`` — the batched
  engine's replay-order decision;
* ``result.shard`` — the one-core :class:`ShardPlan` ``plan_shards``
  applies a launch's core count to;
* ``result.min_cycles`` — the static critical-path lower bound the
  harness reports next to measured cycles.

The structure checks are not re-run here: ``compile_kernel`` validates
the graph on entry and after every pass that changed it, and a
:class:`~repro.compiler.pipeline.CompiledKernel` comes only from there.
It is frozen, so the first result is stored on it (``_analysis`` slot,
the same idiom as the batched engine's ``_batched_static``) and every
later call returns that object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.analyze.diagnostics import Diagnostic, Severity
from repro.analyze.passes import (
    ShardPlan,
    critical_path_bound,
    deadlock_diagnostics,
    engine_diagnostics,
    pure_load_ancestors,
    scratch_race_diagnostics,
    shard_plan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.compiler.pipeline import CompiledKernel

__all__ = ["AnalysisResult", "analyze_kernel"]


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the analyzer derived about one compiled kernel."""

    diagnostics: tuple[Diagnostic, ...]
    engine: str
    order_stable: bool
    prepass_nodes: frozenset[int] | None
    deadlock: bool
    shard: ShardPlan
    min_cycles: int

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Clean bill: no errors and no warnings (INFO verdicts are fine)."""
        return not self.errors() and not self.warnings()

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def __getitem__(self, code: str) -> Diagnostic:
        for diagnostic in self.diagnostics:
            if diagnostic.code == code:
                return diagnostic
        raise KeyError(code)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "engine": self.engine,
            "order_stable": self.order_stable,
            "deadlock": self.deadlock,
            "shardable": self.shard.shardable,
            "shard_fallback_code": self.shard.fallback_code,
            "window_lcm": self.shard.window_lcm,
            "min_cycles": self.min_cycles,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def analyze_kernel(compiled: "CompiledKernel") -> AnalysisResult:
    """Run all passes over ``compiled`` on the first call; return that result after."""
    cached = compiled.__dict__.get("_analysis")
    if cached is not None:
        return cached

    index = compiled.index
    prepass = pure_load_ancestors(index)
    diagnostics: list[Diagnostic] = []
    deadlock_diags = deadlock_diagnostics(index, compiled.config)
    diagnostics.extend(deadlock_diags)
    diagnostics.extend(scratch_race_diagnostics(index))
    shard, shard_diag = shard_plan(index)
    diagnostics.append(shard_diag)
    engine_diags = engine_diagnostics(index, prepass)
    diagnostics.extend(engine_diags)
    min_cycles, cp_diag = critical_path_bound(compiled)
    diagnostics.append(cp_diag)

    codes = {d.code for d in engine_diags}
    if "RA041" in codes:
        engine = "event"
    elif "RA044" in codes:
        engine = "window-batched"
    else:
        engine = "batched"
    result = AnalysisResult(
        diagnostics=tuple(diagnostics),
        engine=engine,
        order_stable=prepass is not None,
        prepass_nodes=frozenset(prepass) if prepass is not None else None,
        deadlock=any(d.code in ("RA010", "RA011") for d in deadlock_diags),
        shard=shard,
        min_cycles=min_cycles,
    )
    compiled.__dict__["_analysis"] = result
    return result

