"""Tests for the physical grid and the static NoC routes across it."""

from repro.arch.grid import PhysicalGrid
from repro.compiler.pipeline import compile_kernel
from repro.config.system import CgraGridConfig
from repro.graph.opcodes import UnitClass
from repro.workloads.registry import get_workload


def test_grid_matches_table2_inventory():
    grid = PhysicalGrid(CgraGridConfig())
    caps = grid.capacity()
    assert len(grid) == 140
    assert caps[UnitClass.ALU] == 32
    assert caps[UnitClass.FPU] == 32
    assert caps[UnitClass.SPECIAL] == 12
    assert caps[UnitClass.LDST] == 32
    assert caps[UnitClass.CONTROL] == 16
    assert caps[UnitClass.SPLIT_JOIN] == 16


def test_grid_compatibility_for_new_units():
    grid = PhysicalGrid(CgraGridConfig())
    # elevator nodes are hosted by control units, eLDST by LDST units
    assert all(u.unit_class is UnitClass.CONTROL
               for u in grid.units_compatible_with(UnitClass.ELEVATOR))
    assert all(u.unit_class is UnitClass.LDST
               for u in grid.units_compatible_with(UnitClass.ELDST))


def test_grid_positions_are_unique_and_in_bounds():
    grid = PhysicalGrid(CgraGridConfig())
    positions = {(u.row, u.col) for u in grid}
    assert len(positions) == len(grid)
    assert all(0 <= u.row < 10 and 0 <= u.col < 14 for u in grid)


def test_manhattan_distance():
    grid = PhysicalGrid(CgraGridConfig())
    a, b = grid.unit(0), grid.unit(15)
    assert a.distance_to(b) == abs(a.row - b.row) + abs(a.col - b.col)


def test_noc_xy_route_length_equals_manhattan_distance():
    """Every routed edge is charged the XY hop count between its tiles."""
    launch = get_workload("matrixMul").prepare({"dim": 8}, seed=0).launch("dmt")
    compiled = compile_kernel(launch.graph)
    placement = compiled.placement
    edge_hops = compiled.index.edge_hops
    routed = 0
    for (src, dst), hops in edge_hops.items():
        src_unit, dst_unit = placement.unit_of(src), placement.unit_of(dst)
        if src_unit is None or dst_unit is None:
            assert hops == 0
            continue
        a, b = placement.grid.unit(src_unit), placement.grid.unit(dst_unit)
        assert hops == abs(a.row - b.row) + abs(a.col - b.col)
        routed += 1
    assert routed and sum(edge_hops.values()) > 0
