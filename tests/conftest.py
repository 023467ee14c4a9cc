"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest
from hypothesis import settings

from repro.config.system import SystemConfig, default_system_config
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.kernel.builder import KernelBuilder
from repro.sim.launch import KernelLaunch

# ``HYPOTHESIS_PROFILE=ci`` makes every property sweep draw the same
# examples on every run, so a red CI run means a regression, not a new draw.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def repro_logging_restored():
    """Restore the ``repro`` logger after a test runs a CLI that configures it."""
    root = logging.getLogger("repro")
    saved = root.level, list(root.handlers), root.propagate
    yield
    root.setLevel(saved[0])
    root.handlers[:] = saved[1]
    root.propagate = saved[2]


@pytest.fixture
def config() -> SystemConfig:
    return default_system_config()


@pytest.fixture
def suite_params() -> dict:
    """Small problem sizes used for fast workload tests."""
    return dict(DEFAULT_SUITE_PARAMS)


@pytest.fixture
def scan_launch():
    """A small dMT prefix-sum kernel (Fig. 6) with its input data."""
    n = 32
    builder = KernelBuilder("scan_fixture", n)
    builder.global_array("in_data", n)
    builder.global_array("prefix", n)
    tid = builder.thread_idx_x()
    value = builder.load("in_data", tid)
    running = builder.from_thread_or_const("sum", -1, 0.0)
    total = running + value
    builder.tag_value("sum", total)
    builder.store("prefix", tid, total)
    graph = builder.finish()
    data = np.arange(1.0, n + 1.0)
    return KernelLaunch(graph, {"in_data": data}), data
