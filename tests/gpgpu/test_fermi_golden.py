"""Golden pin for the Fermi SM model: every paper workload, exactly.

The Fermi baseline is the denominator of both paper headline ratios
(Fig. 11 speed-up and Fig. 12 energy), and no other engine runs its
programs, so nothing cross-checks its cycles or counters.  This test
pins, for every paper workload at ``DEFAULT_SUITE_PARAMS`` and
``BENCHMARK_SUITE_PARAMS``, the cycle count, the full
``run_fermi(...).counters()`` dict and a digest of every array in the
final memory image against ``fermi_golden.json``.  Any change to the
model's timing, accounting or results shows up here as the list of
differing keys.

The table is a recorded measurement, not a derivation.  Regenerate it
only for an intended model change, and say why in the change::

    PYTHONPATH=src python tests/gpgpu/test_fermi_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.gpgpu.simulator import run_fermi
from repro.harness.experiments import outputs_digest
from repro.harness.figures import BENCHMARK_SUITE_PARAMS, DEFAULT_SUITE_PARAMS
from repro.workloads.registry import paper_workloads

GOLDEN_PATH = Path(__file__).with_name("fermi_golden.json")
SIZES = {"default": DEFAULT_SUITE_PARAMS, "benchmark": BENCHMARK_SUITE_PARAMS}
CELLS = [(workload, size) for workload in paper_workloads() for size in SIZES]


def _measure(workload, size) -> dict:
    prepared = workload.prepare(SIZES[size].get(workload.name))
    program = prepared.fermi_program()
    result = run_fermi(program, prepared.fermi_inputs(program))
    return {
        "cycles": result.cycles,
        "counters": result.counters(),
        "array_digests": {
            name: outputs_digest({name: result.memory.array(name)})
            for name in result.memory.names()
        },
    }


def _cell_id(workload, size) -> str:
    return f"{workload.name}/{size}"


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_paper_workload():
    assert sorted(_golden()) == sorted(_cell_id(w, s) for w, s in CELLS)


@pytest.mark.parametrize("workload,size", CELLS, ids=[_cell_id(w, s) for w, s in CELLS])
def test_fermi_model_matches_golden(workload, size):
    expected = _golden()[_cell_id(workload, size)]
    measured = _measure(workload, size)
    differing = []
    if measured["cycles"] != expected["cycles"]:
        differing.append(f"cycles: {expected['cycles']} -> {measured['cycles']}")
    for section in ("counters", "array_digests"):
        want, got = expected[section], measured[section]
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                differing.append(f"{section}[{key}]: {want.get(key)!r} -> {got.get(key)!r}")
    assert not differing, "Fermi model drifted from the golden table:\n  " + "\n  ".join(
        differing
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_fermi_golden.py --regenerate")
    table = {_cell_id(w, s): _measure(w, s) for w, s in CELLS}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {GOLDEN_PATH}")
