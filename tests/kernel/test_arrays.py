"""Tests for kernel array declarations."""

import pytest

from repro.errors import KernelBuildError
from repro.kernel.arrays import ArrayTable, MemorySpace


def test_declare_and_lookup():
    table = ArrayTable()
    spec = table.declare("a", 16)
    assert table.get("a") is spec
    assert "a" in table
    assert spec.size_bytes == 64


def test_addresses_do_not_overlap():
    table = ArrayTable()
    a = table.declare("a", 100)
    b = table.declare("b", 100)
    assert b.base_address >= a.base_address + a.size_bytes


def test_shared_and_global_spaces_are_separate():
    table = ArrayTable()
    g = table.declare("g", 8, space=MemorySpace.GLOBAL)
    s = table.declare("s", 8, space=MemorySpace.SHARED)
    assert g.space == MemorySpace.GLOBAL
    assert s.space == MemorySpace.SHARED
    assert table.total_shared_bytes() == 32
    assert [a.name for a in table.shared_arrays()] == ["s"]


def test_duplicate_name_rejected():
    table = ArrayTable()
    table.declare("a", 8)
    with pytest.raises(KernelBuildError):
        table.declare("a", 8)


def test_invalid_length_rejected():
    with pytest.raises(KernelBuildError):
        ArrayTable().declare("a", 0)


def test_address_of_and_bounds():
    table = ArrayTable()
    a = table.declare("a", 4, elem_bytes=8)
    assert a.address_of(2) == a.base_address + 16
    assert a.contains_index(3)
    assert not a.contains_index(4)


def test_unknown_array_lookup():
    with pytest.raises(KernelBuildError):
        ArrayTable().get("nope")
