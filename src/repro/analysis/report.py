"""Plain-text / markdown rendering of the evaluation artefacts.

The benchmark harness prints the same rows/series the paper reports:
Table 2 (configuration), Table 3 (benchmarks), Figure 5 (ΔTID CDF),
Figure 11 (speedups) and Figure 12 (energy efficiency).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.comparison import ComparisonTable
from repro.analysis.delta_cdf import TransmissionCdf

__all__ = [
    "format_table",
    "render_table3",
    "render_figure5",
    "render_figure11",
    "render_figure12",
    "FIG5_BUFFER_ENTRIES",
]

#: Token-buffer entries whose coverage Figure 5 reports (the paper's 16).
FIG5_BUFFER_ENTRIES = 16


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    columns = (
        [list(map(str, col)) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    )
    widths = [max(len(cell) for cell in col) for col in columns]
    def fmt(row: Sequence[object]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_table3(rows: Sequence[Mapping[str, str]]) -> str:
    """Render the Table 3 benchmark inventory."""
    return format_table(
        ["Application", "Application Domain", "Kernel", "Description"],
        [[r["application"], r["domain"], r["kernel"], r["description"]] for r in rows],
    )


def render_figure5(cdf: TransmissionCdf) -> str:
    """Render the ΔTID CDF and the coverage of one token buffer."""
    rows = [[d, f"{frac:.3f}"] for d, frac in cdf.points()]
    table = format_table(["Transmission distance", "CDF"], rows)
    coverage = cdf.fraction_within(FIG5_BUFFER_ENTRIES)
    return (
        f"{table}\n"
        f"fraction of tokens with |dTID| <= {FIG5_BUFFER_ENTRIES}: {coverage:.2%} "
        f"(paper: 87% at 16)"
    )


def render_figure11(table: ComparisonTable) -> str:
    """Render per-kernel speedups over the Fermi baseline."""
    rows = []
    for row in table.rows:
        rows.append(
            [
                row.workload,
                f"{row.speedup('mt'):.2f}x",
                f"{row.speedup('dmt'):.2f}x",
            ]
        )
    rows.append(
        [
            "geomean",
            f"{table.geomean_speedup('mt'):.2f}x",
            f"{table.geomean_speedup('dmt'):.2f}x",
        ]
    )
    return format_table(["Benchmark", "MT-CGRA", "dMT-CGRA"], rows)


def render_figure12(table: ComparisonTable) -> str:
    """Render per-kernel energy efficiency over the Fermi baseline."""
    rows = []
    for row in table.rows:
        rows.append(
            [
                row.workload,
                f"{row.energy_efficiency('mt'):.2f}x",
                f"{row.energy_efficiency('dmt'):.2f}x",
            ]
        )
    rows.append(
        [
            "geomean",
            f"{table.geomean_energy_efficiency('mt'):.2f}x",
            f"{table.geomean_energy_efficiency('dmt'):.2f}x",
        ]
    )
    return format_table(["Benchmark", "MT-CGRA", "dMT-CGRA"], rows)
