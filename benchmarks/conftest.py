"""Benchmark-harness options.

``--engine`` forces every dataflow simulation of the benchmark suite onto
one engine (``auto``/``event``/``batched``/``window-batched``) so
regressions in any engine fail fast, e.g.::

    pytest benchmarks/ --benchmark-only --engine batched

Forcing an engine is best-effort: :func:`repro.sim.simulate` degrades a
forced engine to a capable one when the graph demands it (a ``batched``
sweep runs communicating kernels window-batched when they are
feed-forward, and on the event engine otherwise).
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
