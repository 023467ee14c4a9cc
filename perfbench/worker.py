"""One benchmark process: set up a workload, run passes, print the ops.

Started by ``run.py`` (it also works standalone).  Prints ``READY`` and
the host-speed checkpoints of its set-up (the last one taken at its end)
on stdout once the first timed op could be issued, runs the passes listed in
``--passes`` (global pass indices; none for a set-up-only worker), and
prints one JSON object as its last stdout line.

``--trace 0``: the object lists every op (kind, normalised latency,
error, cache tier, host latency) and the timed wall time, normalised and
host; ``run.py`` merges the workers' ops into the end-to-end metrics.
Normalised times are host times scaled to the reference host speed of
``hostspeed.py``.  ``--trace 1``: the worker runs each of its
passes untraced and, next to it, one more pass traced, with every
layer's public functions wrapped in spans, and reports the per-layer
metrics; the spans are written to ``.perfbench-work/`` when the run
ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostClock  # noqa: E402
from spans import ENTRY_SPANS, OP_SPAN, Instrumentation, SpanLog, resolve_parents  # noqa: E402
from stats import median_ms  # noqa: E402
from workloads import WORKLOADS, Op, ServeCampaign, Workload  # noqa: E402


def simulate_p50_ms(ops: list[Op], cache: str) -> float:
    """Median latency of the ``/v1/simulate`` requests served from ``cache``."""
    return median_ms([op.latency for op in ops if op.kind == "simulate" and op.cache == cache])


def run_passes(workload: Workload, passes: list[int], log: SpanLog | None = None):
    """Run the given global pass indices; return (ops, timed wall seconds)."""
    ops: list[Op] = []
    start = perf_counter()
    for index in passes:
        ops.extend(workload.run_pass(index, log))
    return ops, perf_counter() - start


def end_to_end(workload: Workload, passes: list[int]) -> dict:
    """Every op's host and host-speed-normalised latency, and the wall times."""
    workload.clock = clock = HostClock()
    ops, _ = run_passes(workload, passes)
    host_wall, wall = clock.busy_wall()
    detail = {
        "determinism_digest": workload.determinism_digest(),
        **workload.model_metrics(),
        **workload.describe(),
    }
    return {
        "ops": [
            [
                op.kind,
                clock.normalised(op.start, op.start + op.latency),
                op.error,
                op.cache,
                clock.host(op.start, op.start + op.latency),
            ]
            for op in ops
        ],
        "wall_s": wall,
        "host_wall_s": host_wall,
        "checkpoints": len(clock.marks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # Simulated statistics exist only where pass 0 ran.
        "detail": detail if 0 in passes else {},
    }


def per_layer(workload: Workload, passes: list[int]) -> dict:
    """Untraced and traced passes in pairs; per-layer metrics from the traced.

    The first pass warms the process up untimed: a process runs its
    first op of each kernel slower than later ones, and that cost would
    otherwise fall on whichever side of a pair ran first.  Each later
    pass is paired with a traced pass of the same mix, run right after
    it or, in every other pair, right before it, so host drift falls on
    both sides alike; ``obs.trace_overhead`` is the median of the pairs'
    traced ÷ untraced wall time per op.
    """
    workload.clock = None
    warmup, *untraced = passes
    warm_ops, _ = run_passes(workload, [warmup])
    log = SpanLog()
    inst = Instrumentation(log)
    base_ops, traced_ops, ratios = [], [], []
    for pair, index in enumerate(untraced):
        walls = {}
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            if traced:
                with inst:
                    ops, wall = run_passes(workload, [max(passes) + 1 + pair], log)
                traced_ops += ops
            else:
                ops, wall = run_passes(workload, [index])
                base_ops += ops
            walls[traced] = wall / len(ops)
        ratios.append(walls[True] / walls[False])
    resolve_parents(log.spans)

    per_op = 1.0 / len(traced_ops)
    self_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span in log.spans:
        self_time[span.name] = self_time.get(span.name, 0.0) + span.self_time
        for arg, value in (span.args or {}).items():
            if span.name.startswith("sim.host.") and isinstance(value, int):
                key = f"{span.name}.{arg}"
                counts[key] = counts.get(key, 0) + value
    untraced_latency = statistics.fmean(op.latency for op in base_ops)
    # Layer time inside an op: on a client thread during the op, or on a
    # server thread (which only ever works for some client's op).  The
    # op's entry call (``run_workload``, ``simulate``) is left out: its
    # self time is whatever no finer span covers.
    clients = {span.thread for span in log.spans if span.name == OP_SPAN}
    op_spans = {span.span_id for span in log.spans if span.name == OP_SPAN}
    entry = [span for span in log.spans if span.parent in op_spans and span.name in ENTRY_SPANS]
    entry_ids = {span.span_id for span in entry}
    attributed = sum(
        span.self_time
        for span in log.spans
        if span.name != OP_SPAN
        and span.span_id not in entry_ids
        and (span.op is not None or span.thread not in clients)
    )

    compiles = max(1, len(inst.kernels))
    metrics = {f"{name}_s": value * per_op for name, value in self_time.items() if name != OP_SPAN}
    metrics.update({name: value * per_op for name, value in counts.items()})
    metrics.update(
        {
            "compiler.compiles_per_op": len(inst.kernels) * per_op,
            "compiler.nodes": sum(len(k.graph) for k in inst.kernels) / compiles,
            "compiler.edges": sum(k.graph.num_edges() for k in inst.kernels) / compiles,
            "compiler.anneal_moves": inst.anneal_moves / compiles,
            "compiler.wire_length": sum(p.wire_length() for p in inst.placements) / compiles,
            "obs.trace_overhead": statistics.median(ratios),
            "obs.attributed_share": attributed * per_op / untraced_latency,
            **workload.simulated(),
            **workload.model_metrics(),
        }
    )
    if isinstance(workload, ServeCampaign):
        http = [op for op in base_ops if op.server_s is not None]
        metrics.update(
            {
                "serve.hit_p50_ms": simulate_p50_ms(base_ops, "hit"),
                "serve.miss_p50_ms": simulate_p50_ms(base_ops, "miss"),
                "serve.transport_ms": median_ms([op.latency - op.server_s for op in http]),
                "serve.characterization_ms": median_ms(
                    [op.latency for op in base_ops if op.kind == "characterization"]
                ),
                **workload.server_stats(),
            }
        )

    ops = warm_ops + base_ops + traced_ops
    WORKDIR.mkdir(exist_ok=True)
    spans_path = WORKDIR / f"spans-{workload.name}-seed{workload.seed}.json"
    spans_path.write_text(json.dumps([span.to_dict() for span in log.spans]))
    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "untraced_ops": len(base_ops),
        "untraced_latency_s_per_op": untraced_latency,
        "traced_ops": len(traced_ops),
        "traced_latency_s_per_op": statistics.fmean(op.latency for op in traced_ops),
        "trace_overhead_pairs": ratios,
        "spans": len(log.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "entry_self_s_per_op": sum(span.self_time for span in entry) * per_op,
        "op_self_s_per_op": self_time.get(OP_SPAN, 0.0) * per_op,
        "metrics": {
            "failed_share": {
                "value": sum(op.failed for op in ops) / len(ops),
                "unit": "ratio",
            }
        },
        "determinism_digest": workload.determinism_digest(),
    }
    failed = [op for op in ops if op.failed]
    for op in failed[:5]:
        print(f"failed op {op.kind}: {op.error}", file=sys.stderr)
    return {
        "correct": not failed and all(math.isfinite(value) for value in metrics.values()),
        "attempted": len(ops),
        "failed": len(failed),
        # run.py attaches the units BENCHMARK.json declares.
        "metrics": metrics,
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--passes", default="", help="comma-separated global pass indices (none: set-up only)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    passes = [int(index) for index in args.passes.split(",") if index]

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    try:
        workload.clock = clock = HostClock()
        workload.setup()
        clock.checkpoint()
        print(f"READY {json.dumps(clock.marks)}", flush=True)
        if not passes:
            return 0
        run = per_layer if args.trace else end_to_end
        result = run(workload, passes)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
