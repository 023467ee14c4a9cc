"""Dispatch pin: which engine and how many cores every request resolves to.

For every ``registry_kernels()`` cell at ``DEFAULT_SUITE_PARAMS``, every
entry of ``ENGINES`` and ``cores`` in ``(None, 4)``, this test pins what
:func:`repro.sim.simulate` reports having run against
``dispatch_pin.json``:

* the resolved ``engine`` and ``cores``;
* ``stats.extra["shard_fallback_code"]`` (set when a multi-core request
  fell back to one core);
* the sorted key set of ``counters()``, space-joined.

It covers what ``EXPECTED_MATRIX`` in ``test_engine_equivalence.py``
does not: the forced event engine on every cell, the multi-core
fallbacks and the counter schema of every run.  Cycles and values are
pinned elsewhere (``test_event_golden.py``).

The table is a recorded measurement.  Regenerate it only for an
intended dispatch change, and say why in the change::

    PYTHONPATH=src python tests/sim/test_dispatch_pin.py --regenerate
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.compiler.pipeline import compile_kernel
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.sim import simulate
from repro.sim.api import ENGINES
from repro.workloads.registry import registry_kernels

PIN_PATH = Path(__file__).with_name("dispatch_pin.json")
CELLS = registry_kernels()
CORES = (None, 4)


def _cell_id(workload, variant) -> str:
    return f"{workload.name}/{variant}"


def _case_id(engine: str, cores: int | None) -> str:
    return f"{engine}@cores={cores}"


@lru_cache(maxsize=None)
def _pin() -> dict:
    return json.loads(PIN_PATH.read_text())


def _measure(workload, variant) -> dict:
    prepared = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name))
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)
    cases = {}
    for engine in ENGINES:
        for cores in CORES:
            result = simulate(compiled, launch, engine=engine, cores=cores)
            extra = result.stats.extra
            cases[_case_id(engine, cores)] = {
                "engine": result.engine,
                "cores": result.cores,
                "shard_fallback_code": extra.get("shard_fallback_code"),
                "counter_keys": " ".join(sorted(result.counters())),
            }
    return cases


def test_pin_covers_the_whole_registry():
    assert sorted(_pin()) == sorted(_cell_id(w, v) for w, v in CELLS)


@pytest.mark.parametrize("workload,variant", CELLS, ids=[_cell_id(w, v) for w, v in CELLS])
def test_dispatch_matches_pin(workload, variant):
    expected = _pin()[_cell_id(workload, variant)]
    measured = _measure(workload, variant)
    differing = []
    for case in sorted(set(expected) | set(measured)):
        want, got = expected.get(case, {}), measured.get(case, {})
        for field in sorted(set(want) | set(got)):
            old, new = want.get(field), got.get(field)
            if old == new:
                continue
            if field == "counter_keys" and old is not None and new is not None:
                old_keys, new_keys = set(old.split()), set(new.split())
                old, new = sorted(old_keys - new_keys), sorted(new_keys - old_keys)
                differing.append(f"{case} counter_keys: removed {old}, added {new}")
            else:
                differing.append(f"{case} {field}: {old!r} -> {new!r}")
    assert not differing, (
        f"dispatch of {_cell_id(workload, variant)} drifted from the pin:\n  "
        + "\n  ".join(differing)
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_dispatch_pin.py --regenerate")
    table = {_cell_id(w, v): _measure(w, v) for w, v in CELLS}
    PIN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {PIN_PATH}")
