"""Benchmark-harness options.

``--engine`` runs every dataflow simulation of the benchmark suite with
one of :data:`repro.sim.ENGINES`: ``auto`` (default; the analyzer's
verdict, batched or window-batched wherever the graph allows) or
``event`` (the exact event-driven engine on every kernel), e.g.::

    pytest benchmarks/ --benchmark-only --engine event
"""

from __future__ import annotations

import pytest

from repro.sim.api import ENGINES


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--engine",
        action="store",
        default="auto",
        choices=ENGINES,
        help="dataflow simulation engine used by the benchmark suite",
    )


@pytest.fixture
def engine(request: pytest.FixtureRequest) -> str:
    """The engine selected with ``--engine`` (default ``auto``)."""
    return request.config.getoption("--engine")
