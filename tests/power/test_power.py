"""Tests for the energy model."""

import pytest

from repro.compiler.pipeline import compile_kernel
from repro.harness.experiments import run_workload
from repro.power.model import EnergyBreakdown, cgra_energy, fermi_energy
from repro.power.tables import default_energy_table
from repro.sim import simulate
from repro.workloads.registry import get_workload

SCAN = {"n": 64}


@pytest.fixture(scope="module")
def scan_dmt():
    """The scan ``dmt`` launch and its compiled kernel (a small recurrence)."""
    launch = get_workload("scan").prepare(SCAN, seed=0).launch("dmt")
    return launch, compile_kernel(launch.graph)


def test_breakdown_accumulates_components():
    breakdown = EnergyBreakdown()
    breakdown.add("alu", 10.0)
    breakdown.add("alu", 5.0)
    breakdown.add("dram", 85.0)
    assert breakdown.total_pj == 100.0
    assert breakdown.fraction("dram") == pytest.approx(0.85)
    assert breakdown.as_dict()["total_pj"] == 100.0


def test_cgra_energy_charges_interthread_events(scan_dmt):
    counters = {
        "cycles": 1000,
        "alu_ops": 100,
        "fpu_ops": 50,
        "elevator_retags": 200,
        "eldst_forwards": 100,
        "noc_hops": 400,
        "token_buffer_inserts": 300,
        "token_buffer_matches": 150,
        "l1_read_hits": 50,
        "dram_reads": 5,
    }
    breakdown = cgra_energy(counters, scan_dmt[1])
    assert breakdown.components["inter_thread"] > 0
    assert breakdown.components["noc"] > 0
    assert breakdown.components["leakage"] > 0
    assert breakdown.total_pj > breakdown.components["leakage"]


def test_fermi_energy_is_dominated_by_front_end_for_compute_kernels():
    counters = {
        "cycles": 1000,
        "instructions_issued": 1000,
        "instructions_per_lane": 32000,
        "register_reads": 64000,
        "register_writes": 32000,
        "alu_ops": 32000,
    }
    breakdown = fermi_energy(counters)
    front_end = breakdown.components["fetch_decode"] + breakdown.components["register_file"]
    assert front_end > breakdown.components["alu"]


def test_cgra_energy_charges_configuration_for_the_placed_units_only(scan_dmt):
    compiled = scan_dmt[1]
    placed = len(compiled.placement.node_to_unit)
    assert placed < compiled.config.grid.total_units
    configuration = cgra_energy({}, compiled).components["configuration"]
    assert configuration == placed * default_energy_table().configuration_per_unit


def test_cgra_energy_of_a_direct_simulation_equals_run_workload(scan_dmt):
    """One energy path: the same kernel costs the same from either entry point."""
    launch, compiled = scan_dmt
    direct = cgra_energy(simulate(compiled, launch).counters(), compiled)
    harness = run_workload("scan", "dmt", params=SCAN, seed=0).energy
    assert direct.components == harness.components


def test_scaled_table_preserves_static_power():
    table = default_energy_table()
    scaled = table.scaled(2.0)
    assert scaled.dram_access == pytest.approx(table.dram_access * 2)
    assert scaled.static_power_fermi == table.static_power_fermi


def test_identical_counters_give_cgra_an_edge_over_fermi(scan_dmt):
    """The same work costs more on the von Neumann front-end than on the fabric."""
    counters = {
        "cycles": 1000,
        "alu_ops": 10000,
        "instructions_issued": 10000 // 32,
        "instructions_per_lane": 10000,
        "register_reads": 20000,
        "register_writes": 10000,
        "token_buffer_inserts": 20000,
        "token_buffer_matches": 10000,
        "noc_hops": 20000,
    }
    cgra, fermi = cgra_energy(counters, scan_dmt[1]), fermi_energy(counters)
    cgra_dynamic = cgra.total_pj - cgra.components.get("leakage", 0.0)
    fermi_dynamic = fermi.total_pj - fermi.components.get("leakage", 0.0)
    assert cgra_dynamic < fermi_dynamic
