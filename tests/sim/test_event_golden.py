"""Golden pin for the event engine: every registry cell, exactly.

The event engine is the only engine for the ``mt`` baseline and for
``scan dmt``, so those cells have no cross-engine oracle for cycles or
counters.  This test pins, for every ``registry_kernels()`` cell at
``DEFAULT_SUITE_PARAMS`` with ``engine="event"``, the cycle count, the
full ``counters()`` dict and the ``outputs_digest`` of the output
arrays against ``event_golden.json``.  Any change to the event engine's
timing, accounting or results shows up here as the list of differing
keys.

The table is a recorded measurement, not a derivation.  Regenerate it
only for an intended model change, and say why in the change::

    PYTHONPATH=src python tests/sim/test_event_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.compiler.pipeline import compile_kernel
from repro.harness.experiments import outputs_digest
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.sim import simulate
from repro.workloads.registry import registry_kernels

GOLDEN_PATH = Path(__file__).with_name("event_golden.json")
CELLS = registry_kernels()


def _measure(workload, variant) -> dict:
    prepared = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name))
    launch = prepared.launch(variant)
    result = simulate(compile_kernel(launch.graph), launch, engine="event")
    return {
        "cycles": result.cycles,
        "counters": result.counters(),
        "outputs_digest": outputs_digest(
            {name: result.array(name) for name in prepared.expected}
        ),
    }


def _cell_id(workload, variant) -> str:
    return f"{workload.name}/{variant}"


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_whole_registry():
    assert sorted(_golden()) == sorted(_cell_id(w, v) for w, v in CELLS)


@pytest.mark.parametrize(
    "workload,variant", CELLS, ids=[_cell_id(w, v) for w, v in CELLS]
)
def test_event_engine_matches_golden(workload, variant):
    expected = _golden()[_cell_id(workload, variant)]
    measured = _measure(workload, variant)
    differing = []
    if measured["cycles"] != expected["cycles"]:
        differing.append(f"cycles: {expected['cycles']} -> {measured['cycles']}")
    if measured["outputs_digest"] != expected["outputs_digest"]:
        differing.append("outputs_digest")
    want, got = expected["counters"], measured["counters"]
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            differing.append(f"counters[{key}]: {want.get(key)!r} -> {got.get(key)!r}")
    assert not differing, "event engine drifted from the golden table:\n  " + "\n  ".join(
        differing
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_event_golden.py --regenerate")
    table = {_cell_id(w, v): _measure(w, v) for w, v in CELLS}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {GOLDEN_PATH}")
