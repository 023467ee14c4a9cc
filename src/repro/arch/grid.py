"""The physical CGRA grid (Fig. 7a).

The grid is the inventory of functional units the mapper places dataflow
nodes onto: a ``rows x cols`` rectangle in which every tile is a unit of a
specific class (ALU, FPU, special, LDST, control/elevator, split/join).
The default layout interleaves unit classes in columns the way Fig. 7a
draws them — load/store units along the edges (close to the L1 banks),
compute in the middle, control/split-join interleaved — so that XY routes
between typical producer/consumer pairs stay short.

In dMT-CGRA the control units double as elevator nodes and the LDST units
as eLDST units (Sec. 4: "we introduce the new units to the grid by
converting the existing control units to elevator nodes and LDST units to
eLDST units"), so the grid exposes a *compatibility* relation rather than
an exact class match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.config.system import CgraGridConfig
from repro.errors import ConfigurationError
from repro.graph.opcodes import UnitClass

__all__ = ["PhysicalUnit", "PhysicalGrid", "COMPATIBLE_CLASSES"]


#: Which physical unit classes may host a dataflow node of a given class.
#: Comparisons, bitwise operations and selects are primarily mapped to the
#: control units (Sec. 4) but are simple enough to fall back onto integer
#: ALUs when the 16 control units are exhausted, mirroring how the SGMF
#: toolchain balances unit classes when replicating graphs.
COMPATIBLE_CLASSES: dict[UnitClass, tuple[UnitClass, ...]] = {
    UnitClass.ALU: (UnitClass.ALU, UnitClass.FPU),
    UnitClass.FPU: (UnitClass.FPU,),
    UnitClass.SPECIAL: (UnitClass.SPECIAL,),
    UnitClass.LDST: (UnitClass.LDST,),
    UnitClass.ELDST: (UnitClass.LDST,),
    UnitClass.CONTROL: (UnitClass.CONTROL, UnitClass.ALU),
    UnitClass.ELEVATOR: (UnitClass.CONTROL,),
    UnitClass.SPLIT_JOIN: (UnitClass.SPLIT_JOIN, UnitClass.CONTROL),
    UnitClass.BARRIER: (UnitClass.SPLIT_JOIN, UnitClass.CONTROL),
    UnitClass.SINK: (UnitClass.LDST, UnitClass.CONTROL, UnitClass.SPLIT_JOIN),
}


@dataclass(frozen=True)
class PhysicalUnit:
    """One tile of the CGRA grid."""

    unit_id: int
    unit_class: UnitClass
    row: int
    col: int

    def distance_to(self, other: "PhysicalUnit") -> int:
        """Manhattan (XY-routing) hop distance to ``other``."""
        return abs(self.row - other.row) + abs(self.col - other.col)


class PhysicalGrid:
    """The placed inventory of functional units of one CGRA core."""

    def __init__(self, config: CgraGridConfig) -> None:
        config.validate()
        self.config = config
        self._units: list[PhysicalUnit] = []
        self._by_class: dict[UnitClass, list[PhysicalUnit]] = {}
        self._build()

    # ------------------------------------------------------------------ layout
    def _class_sequence(self) -> list[UnitClass]:
        """Interleave unit classes across the grid row-major.

        LDST units are emitted first and last (edge columns, near the L1),
        compute units fill the middle, and control / split-join units are
        spread evenly between them.
        """
        cfg = self.config
        half_ldst = cfg.num_ldst // 2
        sequence: list[UnitClass] = []
        sequence += [UnitClass.LDST] * half_ldst
        middle: list[UnitClass] = []
        middle += [UnitClass.ALU] * cfg.num_alu
        middle += [UnitClass.FPU] * cfg.num_fpu
        middle += [UnitClass.SPECIAL] * cfg.num_special
        control: list[UnitClass] = []
        control += [UnitClass.CONTROL] * cfg.num_control
        control += [UnitClass.SPLIT_JOIN] * cfg.num_split_join
        # Interleave control units evenly into the compute body so that an
        # elevator node is never far from the ALUs/FPUs it connects.
        interleaved: list[UnitClass] = []
        if control:
            stride = max(1, len(middle) // len(control))
            ci = 0
            for i, unit in enumerate(middle):
                interleaved.append(unit)
                if i % stride == stride - 1 and ci < len(control):
                    interleaved.append(control[ci])
                    ci += 1
            interleaved.extend(control[ci:])
        else:
            interleaved = middle
        sequence += interleaved
        sequence += [UnitClass.LDST] * (cfg.num_ldst - half_ldst)
        return sequence

    def _build(self) -> None:
        sequence = self._class_sequence()
        if len(sequence) > self.config.rows * self.config.cols:
            raise ConfigurationError(
                "functional units do not fit the configured grid rectangle"
            )
        for unit_id, unit_class in enumerate(sequence):
            row, col = divmod(unit_id, self.config.cols)
            unit = PhysicalUnit(unit_id=unit_id, unit_class=unit_class, row=row, col=col)
            self._units.append(unit)
            self._by_class.setdefault(unit_class, []).append(unit)

    # ------------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self) -> Iterator[PhysicalUnit]:
        return iter(self._units)

    def unit(self, unit_id: int) -> PhysicalUnit:
        try:
            return self._units[unit_id]
        except IndexError as exc:
            raise ConfigurationError(f"unknown physical unit {unit_id}") from exc

    def units_compatible_with(self, node_class: UnitClass) -> list[PhysicalUnit]:
        """Physical units that may host a dataflow node of ``node_class``."""
        compatible = COMPATIBLE_CLASSES.get(node_class, (node_class,))
        out: list[PhysicalUnit] = []
        for cls in compatible:
            out.extend(self._by_class.get(cls, []))
        return out

    def capacity(self) -> dict[UnitClass, int]:
        """Number of physical units per class."""
        return {cls: len(units) for cls, units in self._by_class.items()}

    def distance(self, unit_a: int, unit_b: int) -> int:
        return self.unit(unit_a).distance_to(self.unit(unit_b))
