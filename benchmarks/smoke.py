"""Fail-fast smoke target for both simulation engines and the sharding layer.

Runs the tier-1 test suite, then a 256-thread matmul (``stream`` and the
eLDST-forwarding ``dmt``) on the event engine and on its ``auto`` engine
(batched, window-batched; outputs bit-identical, operation counters
equal), then
an ``mt`` kernel (whole-block barrier plus scratchpad, window-batched)
and ``scan dmt`` (ELEVATOR recurrence, event-only) on their ``auto``
engines against the functional interpreter (outputs bit-identical),
then a windowed reduce
sharded across 4 cores against its single-core run (no fallback, outputs
bit-identical, operation counters equal), then the Fermi SM baseline on
all nine paper workloads at ``DEFAULT_SUITE_PARAMS`` with outputs
checked against the NumPy references (each row's seconds, cycles and
issued warp instructions go into the ``--json`` record) — the cheap
end-to-end signal that
a regression in either engine, the dispatch between them, the
window-aligned multi-core partitioner or the Fermi model is caught
before the full benchmark suite runs.  Usage::

    python benchmarks/smoke.py          # tests + engines + sharding + Fermi
    python benchmarks/smoke.py --no-tests   # engine/sharding/Fermi checks only
    python benchmarks/smoke.py --no-tests --json out.json
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.log import configure, get_logger  # noqa: E402

log = get_logger("benchmarks.smoke")

COMPARED_COUNTERS = ("alu_ops", "fpu_ops", "global_loads", "global_stores")

#: Measured rows collected for the optional --json record.
RESULTS: list[dict] = []


def run_tests() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.call(
        [sys.executable, "-m", "pytest", "-x", "-q"], cwd=REPO_ROOT, env=env
    )


#: matrixMul variants run on the event engine and on the engine ``auto``
#: resolves to, with the counters that must match: the plain streaming
#: kernel, and the 2-D eLDST row/column forwarding of ``dmt``.
ENGINE_KERNELS = (
    ("stream", "batched", COMPARED_COUNTERS),
    ("dmt", "window-batched", COMPARED_COUNTERS + ("eldst_forwards", "eldst_memory_loads")),
)


def run_engine_smoke() -> int:
    import numpy as np

    from repro.compiler.pipeline import compile_kernel
    from repro.sim import simulate
    from repro.workloads.registry import get_workload

    workload = get_workload("matrixMul")
    prepared = workload.prepare({"dim": 16})  # 16x16 block = 256 threads
    for variant, batched_engine, counters in ENGINE_KERNELS:
        compiled = compile_kernel(prepared.launch(variant).graph)
        results = {}
        for engine in ("event", "auto"):
            start = time.perf_counter()
            result = simulate(compiled, prepared.launch(variant), engine=engine)
            elapsed = time.perf_counter() - start
            log.info(f"  {result.engine:<14} 256-thread matmul {variant}: {elapsed:.2f}s, "
                     f"{result.cycles} cycles")
            RESULTS.append(
                {
                    "check": "engine",
                    "engine": result.engine,
                    "kernel": f"matrixMul/{variant}",
                    "seconds": elapsed,
                    "cycles": result.cycles,
                }
            )
            results[engine] = result

        event, batched = results["event"], results["auto"]
        if batched.engine != batched_engine:
            log.error(f"FAIL: matmul {variant} ran on {batched.engine}, "
                      f"expected {batched_engine}")
            return 1
        if not np.array_equal(event.array("c"), batched.array("c")):
            log.error(f"FAIL: engines disagree on matmul {variant} outputs")
            return 1
        prepared.check_outputs({"c": batched.array("c")})
        event_counters = event.stats.as_dict()
        batched_counters = batched.stats.as_dict()
        for counter in counters:
            if event_counters[counter] != batched_counters[counter]:
                log.error(f"FAIL: matmul {variant} {counter} differs between engines "
                          f"(event={event_counters[counter]}, "
                          f"{batched.engine}={batched_counters[counter]})")
                return 1
        log.info(f"  engines agree on matmul {variant}: outputs bit-identical, "
                 f"op counters equal")
    return 0


#: Kernel shapes checked against the functional interpreter on the engine
#: ``auto`` must resolve to: the whole-block barrier + scratchpad shape of
#: the ``mt`` baseline (matrixMul's tile loads race its reads without the
#: barrier, so a barrier that releases early changes the outputs), and
#: scan's cross-thread ELEVATOR recurrence.
FUNCTIONAL_KERNELS = (
    ("matrixMul", "mt", {"dim": 12}, "window-batched"),
    ("scan", "dmt", {"n": 128}, "event"),
)


def run_functional_smoke() -> int:
    import numpy as np

    from repro.compiler.pipeline import compile_kernel
    from repro.sim import simulate
    from repro.sim.functional import run_functional
    from repro.workloads.registry import get_workload

    for name, variant, params, engine in FUNCTIONAL_KERNELS:
        prepared = get_workload(name).prepare(params)
        compiled = compile_kernel(prepared.launch(variant).graph)
        start = time.perf_counter()
        result = simulate(compiled, prepared.launch(variant))
        elapsed = time.perf_counter() - start
        if result.engine != engine:
            log.error(f"FAIL: {name} {variant} ran on {result.engine}, expected {engine}")
            return 1
        reference = run_functional(prepared.launch(variant))
        for array_name in prepared.expected:
            if not np.array_equal(result.array(array_name), reference.array(array_name)):
                log.error(f"FAIL: {name} {variant} '{array_name}' differs from run_functional")
                return 1
        prepared.check_outputs({n: result.array(n) for n in prepared.expected})
        log.info(f"  {engine:<14} {name} {variant}: {elapsed:.2f}s, {result.cycles} cycles, "
                 f"bit-identical to run_functional")
        RESULTS.append(
            {
                "check": "functional",
                "engine": engine,
                "kernel": f"{name}/{variant}",
                "seconds": elapsed,
                "cycles": result.cycles,
            }
        )
    return 0


def run_sharding_smoke() -> int:
    import numpy as np

    from repro.compiler.pipeline import compile_kernel
    from repro.sim import simulate
    from repro.workloads.registry import get_workload

    workload = get_workload("reduce")
    prepared = workload.prepare({"n": 256, "window": 64})
    compiled = compile_kernel(prepared.launch("dmt").graph)

    start = time.perf_counter()
    single = simulate(compiled, prepared.launch("dmt"), cores=1)
    multi = simulate(compiled, prepared.launch("dmt"), cores=4)
    elapsed = time.perf_counter() - start

    if "shard_fallback_reason" in multi.stats.extra:
        log.error(f"FAIL: reduce fell back to one core "
                  f"[{multi.stats.extra.get('shard_fallback_code')}]: "
                  f"{multi.stats.extra['shard_fallback_reason']}")
        return 1
    if multi.cores != 4:
        log.error(f"FAIL: expected 4 active cores, got {multi.cores}")
        return 1
    log.info(f"  sharded 256-thread reduce: {elapsed:.2f}s, "
             f"{single.cycles} cycles on 1 core, {multi.cycles} on 4")
    RESULTS.append(
        {
            "check": "sharding",
            "seconds": elapsed,
            "single_core_cycles": single.cycles,
            "four_core_cycles": multi.cycles,
        }
    )
    if not np.array_equal(single.array("partials"), multi.array("partials")):
        log.error("FAIL: sharded outputs differ from the single-core run")
        return 1
    prepared.check_outputs({"partials": multi.array("partials")})
    single_counters = single.stats.as_dict()
    multi_counters = multi.stats.as_dict()
    for counter in COMPARED_COUNTERS + ("elevator_retags", "tokens_sent"):
        if single_counters[counter] != multi_counters[counter]:
            log.error(f"FAIL: {counter} differs between 1-core and 4-core runs "
                      f"(single={single_counters[counter]}, multi={multi_counters[counter]})")
            return 1
    log.info("  sharding agrees: no fallback, outputs bit-identical, op counters equal")
    return 0


def run_fermi_smoke() -> int:
    from repro.errors import WorkloadError
    from repro.harness.experiments import run_workload
    from repro.harness.figures import DEFAULT_SUITE_PARAMS
    from repro.workloads.registry import paper_workloads

    for workload in paper_workloads():
        name = workload.name
        start = time.perf_counter()
        try:
            result = run_workload(name, "fermi", DEFAULT_SUITE_PARAMS.get(name), check=True)
        except WorkloadError as exc:
            log.error(f"FAIL: {name} fermi outputs differ from the NumPy reference: {exc}")
            return 1
        elapsed = time.perf_counter() - start
        issued = result.counters["instructions_issued"]
        log.info(f"  fermi    {name}: {elapsed:.3f}s, {result.cycles} cycles, "
                 f"{issued} warp instructions, outputs match the NumPy reference")
        RESULTS.append(
            {
                "check": "fermi",
                "kernel": name,
                "seconds": elapsed,
                "cycles": result.cycles,
                "instructions_issued": issued,
            }
        )
    return 0


def main(argv: list[str]) -> int:
    configure(verbosity=1, stream=sys.stdout)
    json_path = None
    if "--json" in argv:
        value_index = argv.index("--json") + 1
        if value_index >= len(argv) or argv[value_index].startswith("--"):
            print("usage: smoke.py [--no-tests] [--json PATH]", file=sys.stderr)
            return 2
        json_path = argv[value_index]
    if "--no-tests" not in argv:
        log.info("== tier-1 tests ==")
        rc = run_tests()
        if rc:
            return rc
    log.info("== engine smoke (matmul stream + dmt, 256 threads, event vs auto) ==")
    rc = run_engine_smoke()
    if rc == 0:
        log.info("== functional smoke (mt barrier + scratchpad, scan dmt recurrence) ==")
        rc = run_functional_smoke()
    if rc == 0:
        log.info("== sharding smoke (windowed reduce, 1 vs 4 cores) ==")
        rc = run_sharding_smoke()
    if rc == 0:
        log.info("== Fermi smoke (nine paper workloads vs NumPy references) ==")
        rc = run_fermi_smoke()
    if json_path:
        sys.path.insert(0, REPO_ROOT)
        from benchmarks.common import write_json

        write_json(
            json_path,
            "smoke",
            RESULTS,
            failures=["smoke checks failed"] if rc else [],
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
