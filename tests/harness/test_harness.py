"""Tests for the experiment harness and figure regeneration."""

import pytest

from repro.harness.experiments import run_suite, run_workload
from repro.harness.figures import figure5, figure11, figure12, table2, table3
from repro.power.model import EnergyBreakdown

FAST = {"n": 64, "k0": 0.25, "k1": 0.5, "k2": 0.25}


def test_run_workload_returns_cycles_energy_and_outputs():
    result = run_workload("convolution", "dmt", params=FAST)
    assert result.cycles > 0
    assert isinstance(result.energy, EnergyBreakdown)
    assert result.energy.total_pj > 0
    assert "out" in result.outputs
    assert result.compiled is not None
    assert "cycles" in result.counters


def test_run_workload_rejects_unknown_architecture():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        run_workload("convolution", "tpu")


def test_compare_architectures_orders_as_the_paper():
    results = {arch: run_workload("convolution", arch, params=FAST) for arch in ("mt", "dmt")}
    # dMT-CGRA must beat the plain MT-CGRA (the paper's core claim).
    assert results["dmt"].cycles < results["mt"].cycles
    assert results["dmt"].energy_pj < results["mt"].energy_pj


def test_run_suite_builds_a_comparison_table():
    table = run_suite(
        workloads=["convolution", "reduce"],
        params={"convolution": FAST, "reduce": {"n": 64, "window": 16}},
    )
    assert table.workloads() == ["convolution", "reduce"]
    assert table.geomean_speedup("dmt") > 0


def test_table2_describes_the_grid():
    result = table2()
    assert "140" in result.text
    assert result.data["grid"]["num_alu"] == 32


def test_table3_has_nine_rows():
    result = table3()
    assert len(result.data) == 9
    assert "Prefix sum" in result.text


def test_figure5_reports_locality():
    result = figure5()
    assert 0.0 < result.data["fraction_within_buffer"] <= 1.0
    assert "CDF" in result.text


def test_figures_11_and_12_share_a_suite_run():
    from repro.harness.experiments import run_suite as suite

    table = suite(
        workloads=["convolution"],
        params={"convolution": FAST},
    )
    fig11 = figure11(table=table)
    fig12 = figure12(table=table)
    assert "convolution" in fig11.data["speedup_dmt"]
    assert "convolution" in fig12.data["efficiency_dmt"]
    assert fig11.data["speedup_dmt"]["convolution"] > fig11.data["speedup_mt"]["convolution"]
