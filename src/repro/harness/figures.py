"""Regeneration of every table and figure of the paper's evaluation.

Each function returns plain data (and a rendered text block) for one
artefact:

* :func:`table2`  — the system configuration dump.
* :func:`table3`  — the benchmark inventory.
* :func:`figure5` — the ΔTID transmission-distance CDF.
* :func:`figure11`/:func:`figure12` — the speedup / energy-efficiency
  comparison, read from the :class:`ComparisonTable` of a suite run
  (:func:`repro.harness.experiments.run_suite`).

The benchmark modules under ``benchmarks/`` call these functions and print
their output, so running ``pytest benchmarks/ --benchmark-only`` recreates
the paper's evaluation artefacts end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.analysis.comparison import ComparisonTable
from repro.analysis.delta_cdf import TransmissionCdf, build_cdf
from repro.analysis.report import (
    FIG5_BUFFER_ENTRIES,
    render_figure5,
    render_figure11,
    render_figure12,
    render_table3,
)
from repro.config.system import default_system_config
from repro.workloads.registry import paper_workloads
from repro.workloads.registry import table3 as table3_rows

__all__ = [
    "FigureResult",
    "table2",
    "table3",
    "figure5",
    "figure11",
    "figure12",
    "DEFAULT_SUITE_PARAMS",
    "BENCHMARK_SUITE_PARAMS",
]

#: Small problem sizes used by the tests and quick sweeps so that the full
#: suite (9 kernels x 3 architectures) runs in a few seconds.
DEFAULT_SUITE_PARAMS: dict[str, dict[str, Any]] = {
    "scan": {"n": 128},
    "matrixMul": {"dim": 12},
    "convolution": {"n": 192},
    "reduce": {"n": 128, "window": 32},
    "lud": {"dim": 10},
    "srad": {"dim": 12},
    "bpnn": {"n_in": 8, "n_out": 16},
    "hotspot": {"dim": 12},
    "pathfinder": {"cols": 128, "rows": 5},
}

#: Larger, throughput-dominated problem sizes used by the benchmark harness
#: when regenerating Figs. 11/12 (the regime the paper evaluates: enough
#: threads that steady-state throughput, not pipeline fill, dominates).
BENCHMARK_SUITE_PARAMS: dict[str, dict[str, Any]] = {
    "scan": {"n": 512},
    "matrixMul": {"dim": 20},
    "convolution": {"n": 512},
    "reduce": {"n": 512, "window": 64},
    "lud": {"dim": 16},
    "srad": {"dim": 20},
    "bpnn": {"n_in": 16, "n_out": 16},
    "hotspot": {"dim": 20},
    "pathfinder": {"cols": 512, "rows": 6},
}


@dataclass
class FigureResult:
    """One regenerated artefact: structured data plus its text rendering."""

    name: str
    data: Any
    text: str


def table2() -> FigureResult:
    """Table 2: the dMT-CGRA system configuration."""
    config = default_system_config()
    return FigureResult(name="table2", data=config.to_dict(), text=config.describe())


def table3() -> FigureResult:
    """Table 3: the benchmark inventory."""
    rows = table3_rows()
    return FigureResult(name="table3", data=rows, text=render_table3(rows))


def figure5(params: Mapping[str, Mapping[str, Any]] | None = None) -> FigureResult:
    """Figure 5: CDF of ΔTID transmission distances across the suite.

    ``params`` maps workload names to size overrides
    (:data:`DEFAULT_SUITE_PARAMS` when omitted).
    """
    overrides = params if params is not None else DEFAULT_SUITE_PARAMS
    graphs = []
    for workload in paper_workloads():
        merged = workload.params_with_defaults(overrides.get(workload.name))
        graphs.append(workload.build_dmt(merged))
    cdf: TransmissionCdf = build_cdf(graphs)
    return FigureResult(
        name="figure5",
        data={
            "points": cdf.points(),
            "fraction_within_buffer": cdf.fraction_within(FIG5_BUFFER_ENTRIES),
            "max_distance": cdf.max_distance(),
        },
        text=render_figure5(cdf),
    )


def figure11(table: ComparisonTable) -> FigureResult:
    """Figure 11: speedup of MT-CGRA and dMT-CGRA over the Fermi SM."""
    data = {
        "speedup_mt": table.speedups("mt"),
        "speedup_dmt": table.speedups("dmt"),
        "geomean_mt": table.geomean_speedup("mt"),
        "geomean_dmt": table.geomean_speedup("dmt"),
        "max_dmt": table.max_speedup("dmt"),
    }
    return FigureResult(name="figure11", data=data, text=render_figure11(table))


def figure12(table: ComparisonTable) -> FigureResult:
    """Figure 12: energy efficiency of MT-CGRA and dMT-CGRA over the Fermi SM."""
    data = {
        "efficiency_mt": table.energy_efficiencies("mt"),
        "efficiency_dmt": table.energy_efficiencies("dmt"),
        "geomean_mt": table.geomean_energy_efficiency("mt"),
        "geomean_dmt": table.geomean_energy_efficiency("dmt"),
        "max_dmt": table.max_energy_efficiency("dmt"),
    }
    return FigureResult(name="figure12", data=data, text=render_figure12(table))
