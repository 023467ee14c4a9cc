"""Energy model: per-event tables and per-architecture accounting."""

from repro.power.model import EnergyBreakdown, cgra_energy, fermi_energy
from repro.power.tables import EnergyTable, default_energy_table

__all__ = [
    "EnergyBreakdown",
    "EnergyTable",
    "cgra_energy",
    "default_energy_table",
    "fermi_energy",
]
