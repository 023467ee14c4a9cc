"""Placement pin: the greedy seed plus annealing, node for node.

For every ``registry_kernels()`` cell at ``DEFAULT_SUITE_PARAMS`` and at
``BENCHMARK_SUITE_PARAMS``, this test runs :func:`place_graph` on the
post-pass graph ``compile_kernel`` hands to the placer, on the default
grid, and pins against ``placement_pin.json``:

* ``sha256``: the SHA-256 of the ``node_to_unit`` items, in order, as
  JSON ``[[node, unit], ...]``;
* ``wire_length``: :meth:`Placement.wire_length` of the result.

``test_mapper.py`` compares the production refiner with its reference
from one shared greedy seed, so only this pin (and the cycle goldens,
indirectly) catches a change to :class:`GreedyPlacer`.

The table is a recorded measurement.  Regenerate it only for an
intended placement change, and say why in the change::

    PYTHONPATH=src python tests/compiler/test_placement_pin.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.arch.grid import PhysicalGrid
from repro.compiler.mapper.placement import place_graph
from repro.compiler.pipeline import compile_kernel
from repro.config.system import CgraGridConfig
from repro.harness.figures import BENCHMARK_SUITE_PARAMS, DEFAULT_SUITE_PARAMS
from repro.workloads.registry import registry_kernels

PIN_PATH = Path(__file__).with_name("placement_pin.json")
SIZES = {"default": DEFAULT_SUITE_PARAMS, "benchmark": BENCHMARK_SUITE_PARAMS}
CASES = [(w, v, size) for w, v in registry_kernels() for size in SIZES]


def _case_id(workload, variant, size: str) -> str:
    return f"{workload.name}/{variant}@{size}"


@lru_cache(maxsize=None)
def _pin() -> dict:
    return json.loads(PIN_PATH.read_text())


def _measure(workload, variant, size: str) -> dict:
    params = workload.params_with_defaults(SIZES[size].get(workload.name))
    index = compile_kernel(workload.build_graph(variant, params)).index
    placement = place_graph(index, PhysicalGrid(CgraGridConfig()))
    items = json.dumps(list(placement.node_to_unit.items()))
    return {
        "sha256": hashlib.sha256(items.encode()).hexdigest(),
        "wire_length": placement.wire_length(),
    }


def test_pin_covers_the_whole_registry_at_both_sizes():
    assert sorted(_pin()) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize(
    "workload,variant,size", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_placement_matches_pin(workload, variant, size):
    assert _measure(workload, variant, size) == _pin()[_case_id(workload, variant, size)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_placement_pin.py --regenerate")
    table = {_case_id(*case): _measure(*case) for case in CASES}
    PIN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {PIN_PATH}")
