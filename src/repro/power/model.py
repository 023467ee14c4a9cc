"""Energy accounting for the three simulated architectures.

The model follows the paper's methodology (Sec. 5.1): the total energy of
a kernel execution is the sum of per-event dynamic energies (taken from
:mod:`repro.power.tables`) plus leakage, ``static power x execution time``
at the Table 2 core clock.  Energy *efficiency* relative to the Fermi
baseline (Fig. 12) is then simply ``E_fermi / E_arch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.config.system import SystemConfig, default_system_config
from repro.power.tables import EnergyTable, default_energy_table

if TYPE_CHECKING:
    from repro.compiler.pipeline import CompiledKernel

__all__ = ["EnergyBreakdown", "cgra_energy", "fermi_energy"]


@dataclass
class EnergyBreakdown:
    """Energy of one kernel execution, split by component (picojoules)."""

    components: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, picojoules: float) -> None:
        if picojoules:
            self.components[name] = self.components.get(name, 0.0) + picojoules

    @property
    def total_pj(self) -> float:
        return sum(self.components.values())

    @property
    def total_uj(self) -> float:
        return self.total_pj * 1e-6

    def fraction(self, name: str) -> float:
        total = self.total_pj
        return self.components.get(name, 0.0) / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        out = dict(self.components)
        out["total_pj"] = self.total_pj
        return out


def _memory_energy(
    counters: Mapping[str, int | float], table: EnergyTable, breakdown: EnergyBreakdown
) -> None:
    l1_accesses = (
        counters.get("l1_read_hits", 0)
        + counters.get("l1_read_misses", 0)
        + counters.get("l1_write_hits", 0)
        + counters.get("l1_write_misses", 0)
    )
    l2_accesses = (
        counters.get("l2_read_hits", 0)
        + counters.get("l2_read_misses", 0)
        + counters.get("l2_write_hits", 0)
        + counters.get("l2_write_misses", 0)
    )
    dram_accesses = counters.get("dram_reads", 0) + counters.get("dram_writes", 0)
    scratch = counters.get("scratchpad_reads", 0) + counters.get("scratchpad_writes", 0)
    breakdown.add("l1", l1_accesses * table.l1_access)
    breakdown.add("l2", l2_accesses * table.l2_access)
    breakdown.add("dram", dram_accesses * table.dram_access)
    breakdown.add("scratchpad", scratch * table.scratchpad_access)


def _leakage(cycles: int, clock_ghz: float, static_watts: float) -> float:
    """Leakage energy in picojoules for ``cycles`` at ``clock_ghz``."""
    seconds = cycles / (clock_ghz * 1e9)
    return static_watts * seconds * 1e12


def cgra_energy(
    counters: Mapping[str, int | float],
    compiled: CompiledKernel,
    table: EnergyTable | None = None,
) -> EnergyBreakdown:
    """Energy of one MT-CGRA / dMT-CGRA execution of ``compiled``.

    Dynamic energy comes from the counters; configuration energy is
    charged for the units the kernel's placement occupies, and leakage at
    the clock of the configuration it was compiled for.
    """
    config = compiled.config
    table = table or default_energy_table()
    breakdown = EnergyBreakdown()

    breakdown.add("alu", counters.get("alu_ops", 0) * table.int_alu_op)
    breakdown.add("fpu", counters.get("fpu_ops", 0) * table.fp_op)
    breakdown.add("sfu", counters.get("special_ops", 0) * table.sfu_op)
    breakdown.add(
        "control",
        (counters.get("control_ops", 0) + counters.get("split_join_ops", 0))
        * table.int_alu_op,
    )
    breakdown.add(
        "token_buffer",
        (counters.get("token_buffer_inserts", 0) + counters.get("token_buffer_matches", 0))
        * table.token_buffer_access,
    )
    breakdown.add("noc", counters.get("noc_hops", 0) * table.noc_hop)
    breakdown.add(
        "inter_thread",
        counters.get("elevator_retags", 0) * table.elevator_retag
        + counters.get("elevator_constants", 0) * table.elevator_retag
        + counters.get("eldst_forwards", 0) * table.eldst_bypass,
    )
    breakdown.add("lvc", counters.get("lvc_accesses", 0) * table.lvc_access)
    configured_units = len(compiled.placement.node_to_unit)
    breakdown.add("configuration", configured_units * table.configuration_per_unit)
    _memory_energy(counters, table, breakdown)
    breakdown.add(
        "leakage",
        _leakage(int(counters.get("cycles", 0)), config.core_clock_ghz, table.static_power_cgra),
    )
    return breakdown


def fermi_energy(
    counters: Mapping[str, int | float],
    config: SystemConfig | None = None,
    table: EnergyTable | None = None,
) -> EnergyBreakdown:
    """Energy of one Fermi-SM execution from its counters."""
    config = config or default_system_config()
    table = table or default_energy_table()
    breakdown = EnergyBreakdown()

    breakdown.add(
        "fetch_decode",
        counters.get("instructions_issued", 0) * table.instruction_fetch_decode,
    )
    breakdown.add(
        "register_file",
        (counters.get("register_reads", 0) + counters.get("register_writes", 0))
        * table.register_file_access
        + counters.get("instructions_per_lane", 0) * table.operand_collector,
    )
    breakdown.add("alu", counters.get("alu_ops", 0) * table.fp_op)
    breakdown.add("sfu", counters.get("special_ops", 0) * table.sfu_op)
    _memory_energy(counters, table, breakdown)
    breakdown.add(
        "leakage",
        _leakage(int(counters.get("cycles", 0)), config.core_clock_ghz, table.static_power_fermi),
    )
    return breakdown

