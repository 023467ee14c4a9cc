"""Tests for the Live Value Cache."""

import pytest

from repro.arch.lvc import LiveValueCache
from repro.errors import SimulationError


def test_lvc_roundtrip_and_latency():
    lvc = LiveValueCache(capacity_values=2, access_latency=6)
    assert lvc.write("k", 1.0) == 6
    value, latency = lvc.read("k")
    assert value == 1.0 and latency == 6
    assert "k" not in lvc


def test_lvc_overflow_is_tracked_separately():
    lvc = LiveValueCache(capacity_values=1)
    lvc.write("a", 1)
    lvc.write("b", 2)
    assert lvc.stats.overflow_writes == 1
    assert lvc.read("b")[0] == 2
    assert lvc.stats.overflow_reads == 1


def test_lvc_missing_key_is_an_error():
    with pytest.raises(SimulationError):
        LiveValueCache().read("missing")
