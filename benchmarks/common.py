"""Shared helpers for the benchmark harness.

The full-suite comparison (9 kernels x 3 architectures) is computed once
per pytest session and reused by the Figure 11 and Figure 12 benches.
The suite honours the ``--engine`` option (see ``benchmarks/conftest.py``)
so both simulation engines can be exercised by the same drivers.

Every CLI benchmark runner also supports ``--json out.json``
(:func:`add_json_option` / :func:`write_json`): the gate's measured
numbers are written as a machine-readable record so CI can merge them
into one ``BENCH_ci.json`` artifact (``python benchmarks/common.py
--merge BENCH_ci.json bench_*.json``) instead of throwing the
trajectory away with the job log.

:func:`run_against_hierarchy` is the batched engines' memory-model
oracle, shared by the fidelity gate and ``tests/sim/test_fidelity.py``:
it replays every ``access_batch`` call of a run through the event
engine's :class:`~repro.memory.hierarchy.MemoryHierarchy`, and every
scratch-level replay through :meth:`Scratchpad.access
<repro.memory.scratchpad.Scratchpad.access>` one access at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from functools import lru_cache
from typing import Any, NamedTuple

__all__ = [
    "add_json_option",
    "cached_suite",
    "merge_json",
    "HierarchyReplay",
    "replay_access_batch",
    "replay_scratch_batch",
    "run_against_hierarchy",
    "write_json",
]


@lru_cache(maxsize=None)
def cached_suite(engine: str = "auto"):
    """Run the Table 3 suite on all three architectures once and cache it.

    Imports stay local so the CLI ``--merge`` mode works without the
    simulator package on ``sys.path``.
    """
    from repro.harness.experiments import run_suite
    from repro.harness.figures import BENCHMARK_SUITE_PARAMS

    return run_suite(params=BENCHMARK_SUITE_PARAMS, engine=engine)


def add_json_option(parser: argparse.ArgumentParser) -> None:
    """Register the shared ``--json PATH`` option on a runner's parser."""
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the gate's measured numbers to PATH as JSON",
    )


def write_json(
    path: "str | None",
    benchmark: str,
    rows: list,
    failures: "list[str] | None" = None,
    extra: "dict | None" = None,
) -> None:
    """Write one runner's machine-readable result record (no-op if no path)."""
    if not path:
        return
    payload = {
        "benchmark": benchmark,
        "ok": not failures,
        "failures": list(failures or ()),
        "rows": rows,
        "python": platform.python_version(),
    }
    if extra:
        payload.update(extra)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def replay_access_batch(hierarchy, addresses, cycles, is_store):
    """One ``AnalyticMemoryModel.access_batch`` call replayed through
    ``hierarchy.l1`` one access at a time; returns its completion cycles."""
    import numpy as np

    from repro.memory.request import AccessType

    writes = np.broadcast_to(np.asarray(is_store, dtype=bool), np.shape(addresses))
    access = hierarchy.l1.access
    return np.array(
        [
            access(int(address), AccessType.STORE if write else AccessType.LOAD, int(cycle))
            for address, cycle, write in zip(
                np.asarray(addresses).tolist(), np.asarray(cycles).tolist(), writes.tolist()
            )
        ],
        dtype=np.float64,
    )


def replay_scratch_batch(scratchpad, addresses, is_write, cycles):
    """One ``Scratchpad.access_batch`` call replayed through
    ``scratchpad.access`` one access at a time; returns its completions."""
    import numpy as np

    writes = np.broadcast_to(np.asarray(is_write, dtype=bool), np.shape(addresses))
    return np.array(
        [
            scratchpad.access(int(address), bool(write), int(cycle))
            for address, write, cycle in zip(
                np.asarray(addresses).tolist(), writes.tolist(), np.asarray(cycles).tolist()
            )
        ],
        dtype=np.int64,
    )


class HierarchyReplay(NamedTuple):
    """What :func:`run_against_hierarchy` replayed and where it diverged."""

    result: Any
    replayed: int
    mismatches: list
    scratch_replayed: int
    scratch_mismatches: list


def run_against_hierarchy(simulator) -> HierarchyReplay:
    """Run a single-core batched-engine simulator against the event
    engine's memory hierarchy.

    Every ``access_batch`` call of the run is replayed through a fresh
    ``MemoryHierarchy`` of the simulator's memory configuration, and
    every scratch level's ``Scratchpad.access_batch`` stream through
    that hierarchy's scratchpad one ``access`` at a time.  The
    mismatch lists name each call whose completion cycles differ and
    each level (L1, L2, DRAM, scratchpad) whose final counters differ.
    """
    import numpy as np

    from repro.memory.hierarchy import MemoryHierarchy

    oracle = MemoryHierarchy(simulator.hierarchy.config)
    model = simulator._analytic
    access_batch = model.access_batch
    scratchpad = simulator.hierarchy.scratchpad
    scratch_batch = scratchpad.access_batch
    mismatches: list[str] = []
    scratch_mismatches: list[str] = []
    replayed = 0
    scratch_replayed = 0

    def checked(addresses, cycles, is_store):
        nonlocal replayed
        complete = access_batch(addresses, cycles, is_store)
        expected = replay_access_batch(oracle, addresses, cycles, is_store)
        if not np.array_equal(complete, expected):
            mismatches.append(f"access_batch call at access {replayed}: completions differ")
        replayed += complete.size
        return complete

    def checked_scratch(addresses, is_write, cycles):
        nonlocal scratch_replayed
        complete = scratch_batch(addresses, is_write, cycles)
        expected = replay_scratch_batch(oracle.scratchpad, addresses, is_write, cycles)
        if not np.array_equal(complete, expected):
            scratch_mismatches.append(
                f"scratch access_batch call at access {scratch_replayed}: completions differ"
            )
        scratch_replayed += complete.size
        return complete

    model.access_batch = checked
    scratchpad.access_batch = checked_scratch
    result = simulator.run()
    got, want = simulator.hierarchy.stats(), oracle.stats()
    for level in ("l1", "l2", "dram"):
        expected, measured = getattr(want, level), getattr(got, level)
        if measured != expected:
            mismatches.append(f"{level} counters: {expected} -> {measured}")
    if got.scratchpad != want.scratchpad:
        scratch_mismatches.append(
            f"scratchpad counters: {want.scratchpad} -> {got.scratchpad}"
        )
    return HierarchyReplay(result, replayed, mismatches, scratch_replayed, scratch_mismatches)


def merge_json(out_path: str, in_paths: list[str]) -> dict:
    """Merge per-gate records into one trajectory file keyed by benchmark."""
    merged: dict = {"gates": {}, "ok": True}
    for path in in_paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        name = record.get("benchmark", os.path.basename(path))
        merged["gates"][name] = record
        merged["ok"] = merged["ok"] and bool(record.get("ok", True))
    merged["python"] = platform.python_version()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return merged


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--merge",
        nargs="+",
        metavar=("OUT", "IN"),
        help="merge per-gate JSON records (IN...) into one trajectory file OUT",
    )
    args = parser.parse_args(argv)
    if not args.merge or len(args.merge) < 2:
        parser.error("--merge needs an output path and at least one input record")
    merged = merge_json(args.merge[0], args.merge[1:])
    print(
        f"merged {len(merged['gates'])} gate record(s) into {args.merge[0]} "
        f"(ok={merged['ok']})"
    )
    return 0 if merged["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
