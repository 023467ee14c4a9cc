"""Benchmark launcher: one command, one workload, every metric by name.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and builds nothing: the program is the
pure-Python package under ``src/``.  A run starts ``SETUP_RUNS`` fresh
worker processes (``perfbench/worker.py``) one after another.  Each one's
set-up is timed from its spawn to its ``READY`` line — interpreter start,
imports, input generation, and the workload's own set-up (the 4096-thread
compiles of ``engine_4k``, the server boot of ``serve_campaign``);
``setup_s`` is their median.

Every time is normalised to a reference host speed (``hostspeed.py``):
the workers time a fixed loop of the benchmark's own between ops (and
between the compiles of ``engine_4k``'s set-up), the launcher before
each spawn, and each op or set-up is scaled by how much faster or
slower than its reference the host ran that loop just then.
That cancels the host's speed drift, which otherwise spreads run-to-run
figures wider than any useful bound.  The host times are on the detail
line.

A run is a fixed number of whole passes (``PASSES`` at the ``run_seconds``
of ``BENCHMARK.json``, scaled by ``--seconds``), not a fixed time, so
every run and every commit measures the same ops — and ``op_tail_ms``
the same percentile.  The passes are dealt round-robin to
``TIMED_WORKERS`` workers spread evenly among the others, which run
them after their set-up: the measurement spans several processes and
moments, and at the default
length no process runs a ``paper_suite`` kernel twice.  With
``--trace 1`` a single worker runs half as many passes (rounded up),
each untraced and again traced.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The line before it holds what does not fit that schema
(``failed_share``, the workload-specific metrics, the tail percentile,
the determinism digest).  Exits non-zero, printing no result, if the
program is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock
from stats import median_ms, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Passes per run at ``BENCHMARK.json``'s ``run_seconds``: about 30 s of
#: ops for ``paper_suite`` (9 rows a pass, one pass per process), 7 s for
#: ``engine_4k`` (8 kernels a pass) and 12 s for ``serve_campaign`` (3
#: rounds a pass) on a 2-vCPU VM; a whole run, set-ups included, takes
#: 20-45 s.
PASSES = {"paper_suite": 3, "engine_4k": 4, "serve_campaign": 2}
#: Set-ups per run; ``setup_s`` is their median.  A set-up is imports
#: plus a server boot for ``paper_suite`` and ``serve_campaign`` (well
#: under a second) but eight 4096-thread compiles for ``engine_4k``.
SETUP_RUNS = {"paper_suite": 9, "engine_4k": 2, "serve_campaign": 9}
#: Most processes the passes are dealt to: one ``paper_suite`` pass
#: each, so that no process compiles a kernel twice.
TIMED_WORKERS = {"paper_suite": 4, "engine_4k": 2, "serve_campaign": 3}
#: Wall-clock budget of one run, all workers included.
RUN_BUDGET_S = 175.0


def _worker(args: argparse.Namespace, passes: list[int], deadline: float) -> tuple[float, str]:
    """Run one worker to completion; return (normalised set-up seconds, stdout after READY)."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(args.trace),
        "--passes",
        ",".join(map(str, passes)),
    ]
    # The launcher idles while a worker sets up, so it takes the set-up's
    # first checkpoint just before the spawn; the worker takes the others.
    # ``perf_counter`` is the system-wide monotonic clock, so the marks of
    # both processes lie on one time line.
    clock = HostClock()
    clock.checkpoint()
    start = perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), process.kill)
    watchdog.start()
    try:
        for line in process.stdout:
            if line.startswith("READY"):
                # READY <marks>: the last mark ends the set-up and, like
                # every checkpoint, is not counted in it.
                clock.marks += [tuple(mark) for mark in json.loads(line[len("READY") :])]
                setup = clock.normalised(start, clock.marks[-1][1])
                output, _ = process.communicate()
                break
        else:
            setup, output = math.nan, ""
            process.wait()
    finally:
        watchdog.cancel()
    if process.returncode != 0 or math.isnan(setup):
        raise RuntimeError(f"{args.workload} worker exited with code {process.returncode}")
    return setup, output


def _end_to_end(results: list[dict], setups: list[float]) -> tuple[dict, dict, list, bool]:
    """Merge the timed workers' ops: (metrics, detail, failed ops, all finite)."""
    ops = [op for result in results for op in result["ops"]]
    latencies = [latency for _, latency, _, _, _ in ops]
    host = [host for *_, host in ops]
    tail_s, percentile, beyond = tail(latencies)
    failed = [(kind, error) for kind, _, error, _, _ in ops if error is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": median_ms(latencies),
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(ops) / sum(result["wall_s"] for result in results),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
    }
    first = next(result["detail"] for result in results if result["detail"])
    # Metrics of one workload only, or 0 when all is well: the result
    # schema has no room for them, so they ride on the detail line.
    extra = {"failed_share": (len(failed) / len(ops), "ratio")}
    for name in ("fig11_gap", "fig12_gap"):
        if f"model.{name}" in first:
            extra[name] = (first[f"model.{name}"], "ratio")
    for cache in ("hit", "miss"):
        # Simulate requests only: a compile also has a hit/miss tier.
        values = [latency for kind, latency, _, tier, _ in ops if (kind, tier) == ("simulate", cache)]
        if values:
            extra[f"{cache}_p50_ms"] = (median_ms(values), "ms")
    detail = {
        "ops": len(ops),
        "timed_workers": len(results),
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "setup_runs_s": setups,
        # The same figures in host time, before normalisation.
        "host_op_p50_ms": median_ms(host),
        "host_op_tail_ms": tail(host)[0] * 1e3,
        "host_ops_per_s": len(ops) / sum(result["host_wall_s"] for result in results),
        "checkpoints": sum(result["checkpoints"] for result in results),        **{name: value for name, value in first.items() if not name.startswith("model.")},
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in extra.items()},
    }
    return metrics, detail, failed, all(math.isfinite(v) for v, _ in extra.values())


def run(args: argparse.Namespace, spec: dict) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    count = max(1, round(PASSES[args.workload] * args.seconds / spec["run_seconds"]))
    if args.trace:
        # No setup_s in a traced run: one worker does it all — a warm-up
        # pass, then half the passes each once untraced and once traced.
        plan = [list(range(1 + (count + 1) // 2))]
    else:
        # The timed workers sit evenly among the set-up-only ones, so the
        # set-ups sample the whole run, not only its first seconds.
        workers = SETUP_RUNS[args.workload]
        timed = min(count, TIMED_WORKERS[args.workload], workers)
        slots = [workers - 1 - k * (workers // timed) for k in reversed(range(timed))]
        plan = [[] for _ in range(workers)]
        for index in range(count):
            plan[slots[index % timed]].append(index)

    setups, results = [], []
    for passes in plan:
        setup, output = _worker(args, passes, deadline)
        setups.append(setup)
        if passes:
            lines = output.strip().splitlines()
            if not lines:
                raise RuntimeError("worker printed no result")
            results.append(json.loads(lines[-1]))

    if args.trace:
        (result,) = results
        produced, detail = result["metrics"], result["detail"]
        attempted, failed = result["attempted"], result["failed"]
        correct = result["correct"]
        names = spec["per_layer"]
    else:
        produced, detail, errors, finite = _end_to_end(results, setups)
        for kind, error in errors[:5]:
            print(f"failed op {kind}: {error}", file=sys.stderr)
        attempted, failed = detail["ops"], len(errors)
        correct = finite and not errors
        names = spec["end_to_end"]
    metrics = {}
    for entry in names:
        name = entry["name"]
        if name not in produced and not args.trace:
            raise RuntimeError(f"worker did not measure end-to-end metric '{name}'")
        # Per-layer metrics of a layer the workload never calls are 0.
        metrics[name] = {"value": produced.get(name, 0.0), "unit": entry["unit"]}
    detail = {"workload": args.workload, "seed": args.seed, "passes": count, **detail}
    return {
        "detail": detail,
        "final": {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        outcome = run(args, spec)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": outcome["detail"]}))
    print(json.dumps(outcome["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
