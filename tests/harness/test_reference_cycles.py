"""A finished run is freed by reference count: it leaves no cycle to collect.

Each run builds a memory hierarchy, a kernel builder and engine state.
Held in reference cycles, they waited for the cyclic collector, so a
process's peak memory depended on when it ran: the L1's next-level
closure pointed back at its hierarchy, tagged builder values at their
builder, and the event engine's node states at each other around a
recurrence.  With the collector off, a run whose result is dropped must
leave nothing of ``repro`` for ``gc.collect()`` to find.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.harness.experiments import run_workload
from repro.harness.figures import DEFAULT_SUITE_PARAMS

#: Fermi, both batched engines and the event engine (scan's recurrence).
CELLS = [("matrixMul", "fermi"), ("matrixMul", "mt"), ("matrixMul", "dmt"), ("scan", "dmt")]


def _unreachable_repro_objects(workload: str, variant: str) -> Counter:
    params = DEFAULT_SUITE_PARAMS[workload]
    run_workload(workload, variant, params=params)  # first-call imports and caches
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_workload(workload, variant, params=params, seed=1)
        gc.collect()
        return Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


@pytest.mark.parametrize(("workload", "variant"), CELLS)
def test_a_dropped_run_leaves_no_reference_cycle(workload, variant):
    assert _unreachable_repro_objects(workload, variant) == Counter()
