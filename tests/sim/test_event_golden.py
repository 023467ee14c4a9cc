"""Golden pins for the event and batched engines: every cell, exactly.

The event engine is the only engine for the ``mt`` baseline and for
``scan dmt``, so those cells have no cross-engine oracle for cycles or
counters.  This test pins, for every ``registry_kernels()`` cell at
``DEFAULT_SUITE_PARAMS`` with ``engine="event"``, the cycle count, the
full ``counters()`` dict and the ``outputs_digest`` of the output
arrays against ``event_golden.json``.  Any change to the event engine's
timing, accounting or results shows up here as the list of differing
keys.

``batched_golden.json`` pins the same record for every cell whose
``engine="auto"`` resolves to ``batched`` or ``window-batched``, at
``cores`` in ``(None, 4)``, plus the resolved engine and core count.
Its counters compare by canonical JSON text, so a counter whose value
keeps but whose type turns from ``int`` to ``float`` also fails.

The tables are recorded measurements, not derivations.  Regenerate them
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
BATCHED_GOLDEN_PATH = Path(__file__).with_name("batched_golden.json")
CELLS = registry_kernels()
BATCHED_ENGINES = ("batched", "window-batched")
BATCHED_CORES = (None, 4)


def _measure(workload, variant, engine="event", cores=(None,)) -> list[dict]:
    """The pinned record of one cell, one per entry of ``cores`` (one
    compile serves them all)."""
    prepared = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name))
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)
    records = []
    for count in cores:
        result = simulate(compiled, launch, engine=engine, cores=count)
        record = {
            "cycles": result.cycles,
            "counters": result.counters(),
            "outputs_digest": outputs_digest(
                {name: result.array(name) for name in prepared.expected}
            ),
        }
        if engine != "event":
            record.update(engine=result.engine, cores=result.cores)
        records.append(record)
    return records


def _cell_id(workload, variant) -> str:
    return f"{workload.name}/{variant}"


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _batched_golden() -> dict:
    return json.loads(BATCHED_GOLDEN_PATH.read_text())


def _batched_cells() -> list:
    """The cells ``engine="auto"`` runs on a batched engine (the dispatch
    pin records the resolution, so no cell is compiled to find out)."""
    dispatch = json.loads(Path(__file__).with_name("dispatch_pin.json").read_text())
    return [
        (w, v)
        for w, v in CELLS
        if dispatch[_cell_id(w, v)]["auto@cores=None"]["engine"] in BATCHED_ENGINES
    ]


BATCHED_CELLS = _batched_cells()


def _canonical(record: dict) -> dict[str, str]:
    """Each field and each counter as canonical JSON text (``3`` != ``3.0``)."""
    fields = {key: value for key, value in record.items() if key != "counters"}
    fields.update((f"counters[{key}]", value) for key, value in record["counters"].items())
    return {key: json.dumps(value) for key, value in fields.items()}


def test_golden_covers_the_whole_registry():
    assert sorted(_golden()) == sorted(_cell_id(w, v) for w, v in CELLS)


@pytest.mark.parametrize(
    "workload,variant", CELLS, ids=[_cell_id(w, v) for w, v in CELLS]
)
def test_event_engine_matches_golden(workload, variant):
    expected = _golden()[_cell_id(workload, variant)]
    [measured] = _measure(workload, variant)
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


def _batched_table() -> dict:
    table = {}
    for workload, variant in BATCHED_CELLS:
        records = _measure(workload, variant, engine="auto", cores=BATCHED_CORES)
        for count, record in zip(BATCHED_CORES, records):
            table[f"{_cell_id(workload, variant)}@cores={count}"] = record
    return table


def test_batched_golden_covers_every_batched_cell():
    assert BATCHED_CELLS
    assert sorted(_batched_golden()) == sorted(
        f"{_cell_id(w, v)}@cores={count}" for w, v in BATCHED_CELLS for count in BATCHED_CORES
    )


@pytest.mark.parametrize(
    "workload,variant", BATCHED_CELLS, ids=[_cell_id(w, v) for w, v in BATCHED_CELLS]
)
def test_batched_engines_match_golden(workload, variant):
    golden = _batched_golden()
    records = _measure(workload, variant, engine="auto", cores=BATCHED_CORES)
    differing = []
    for count, measured in zip(BATCHED_CORES, records):
        want = _canonical(golden[f"{_cell_id(workload, variant)}@cores={count}"])
        got = _canonical(measured)
        differing += [
            f"cores={count} {key}: {want.get(key)} -> {got.get(key)}"
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)
        ]
    assert not differing, "batched engines drifted from the golden table:\n  " + "\n  ".join(
        differing
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_event_golden.py --regenerate")
    table = {_cell_id(w, v): _measure(w, v)[0] for w, v in CELLS}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {GOLDEN_PATH}")
    batched = _batched_table()
    BATCHED_GOLDEN_PATH.write_text(json.dumps(batched, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(batched)} cases to {BATCHED_GOLDEN_PATH}")
