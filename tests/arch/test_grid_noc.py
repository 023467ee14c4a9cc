"""Tests for the physical grid and the NoC model."""

import pytest

from repro.arch.grid import PhysicalGrid
from repro.arch.noc import Link, Noc
from repro.config.system import CgraGridConfig, NocConfig
from repro.errors import RoutingError
from repro.graph.opcodes import UnitClass


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
    grid = PhysicalGrid(CgraGridConfig())
    noc = Noc(grid, NocConfig())
    route = noc.route(0, 25)
    assert len(route) == grid.distance(0, 25)
    # An uncontended token pays the injection latency plus one cycle per hop.
    assert noc.send(0, 25, cycle=0) == 1 + len(route)


def test_noc_link_contention_delays_tokens():
    grid = PhysicalGrid(CgraGridConfig())
    noc = Noc(grid, NocConfig(link_bandwidth_tokens=1))
    first = noc.send(0, 1, cycle=0)
    second = noc.send(0, 1, cycle=0)
    assert second > first
    assert noc.stats.contention_cycles >= 1


def test_link_must_connect_adjacent_tiles():
    with pytest.raises(RoutingError):
        Link(0, 0, 2, 0)
