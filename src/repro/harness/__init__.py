"""Experiment orchestration and figure/table regeneration."""

from repro.harness.experiments import (
    RunResult,
    outputs_digest,
    run_suite,
    run_workload,
)
from repro.harness.figures import (
    BENCHMARK_SUITE_PARAMS,
    DEFAULT_SUITE_PARAMS,
    FigureResult,
    figure5,
    figure11,
    figure12,
    table2,
    table3,
)

__all__ = [
    "BENCHMARK_SUITE_PARAMS",
    "DEFAULT_SUITE_PARAMS",
    "FigureResult",
    "RunResult",
    "figure5",
    "figure11",
    "figure12",
    "outputs_digest",
    "run_suite",
    "run_workload",
    "table2",
    "table3",
]
