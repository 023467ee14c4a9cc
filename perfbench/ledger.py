"""Per-layer ledger: where each workload's op wall time goes.

    python3 perfbench/ledger.py [--seed 1] [--seconds 30]

Runs every workload once with ``--trace 1`` and writes
``perfbench/ledger.json`` (every per-layer metric) and
``perfbench/LEDGER.md`` (the five layers with the most self time per op,
and how completely the layer spans account for the untraced op time).
The default length is three runs' worth of passes: the host's speed
drifts by more than tracing costs, so ``obs.trace_overhead`` needs more
untraced/traced pairs than one run has.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import TAIL_SAMPLES
from worker import OP_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_suite", "engine_4k", "serve_campaign")
TOP = 5


def traced(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1",
    ]
    output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    detail_line, result_line = output.stdout.strip().splitlines()[-2:]
    detail = json.loads(detail_line)["detail"]
    return {"detail": detail, "tail_op": tail_op(detail["spans_file"]), **json.loads(result_line)}


def tail_op(spans_file: str) -> dict:
    """The traced op at the ``op_tail_ms`` rank and its self time per layer."""
    spans = json.loads((ROOT / spans_file).read_text())
    ops = sorted(
        (span for span in spans if span["name"] == OP_SPAN),
        key=lambda span: span["end"] - span["start"],
    )
    op = ops[max(0, len(ops) - TAIL_SAMPLES - 1)]
    layers: dict[str, float] = {}
    for span in spans:
        if span["op"] == op["op"] and span["name"] != OP_SPAN:
            layers[span["name"]] = layers.get(span["name"], 0.0) + span["self"]
    return {
        "kind": op["args"]["kind"],
        "percentile": 100.0 * (ops.index(op) + 1) / len(ops),
        "ms": (op["end"] - op["start"]) * 1e3,
        "layers_ms": {
            name: value * 1e3 for name, value in sorted(layers.items(), key=lambda kv: -kv[1])
        },
    }


def render(runs: dict[str, dict], seconds: float) -> str:
    lines = [
        "# Per-layer ledger",
        "",
        f"Generated by `python3 perfbench/ledger.py --seconds {seconds:g}` (one",
        "`--trace 1` run per workload, after a warm-up pass). Self time is a",
        "span's duration minus its child spans, averaged per op of the traced",
        "passes; the share is of the mean op latency of the untraced passes,",
        "which alternate with the traced ones. With two clients",
        "(`serve_campaign`) server-side spans of concurrent ops overlap, so",
        "shares can sum past 100%.",
        "",
        "`obs.attributed_share` is the self time of every layer span inside",
        "the ops, except the op's entry call (`run_workload`, `simulate`),",
        "over the untraced op time. The spans account for the untraced op",
        "time within the tracing overhead when the unattributed rest,",
        "1 − share, is at most |`obs.trace_overhead` − 1|.",
        "",
    ]
    for workload, run in runs.items():
        metrics = {name: entry["value"] for name, entry in run["metrics"].items()}
        detail = run["detail"]
        untraced = detail["untraced_latency_s_per_op"]
        traced_op = detail["traced_latency_s_per_op"]
        layers = sorted(
            ((name[:-2], value) for name, value in metrics.items() if name.endswith("_s")),
            key=lambda item: -item[1],
        )
        overhead, share = metrics["obs.trace_overhead"], metrics["obs.attributed_share"]
        pairs = ", ".join(f"{ratio:.3f}" for ratio in detail["trace_overhead_pairs"])
        lines += [
            f"## {workload}",
            "",
            f"- mean op latency untraced: {untraced * 1e3:.1f} ms;"
            f" traced: {traced_op * 1e3:.1f} ms; `obs.trace_overhead` (median of"
            f" the pairs' traced ÷ untraced wall per op: {pairs}): {overhead:.3f}",
            f"- `obs.attributed_share`: {share:.3f}; entry-call self time"
            f" {detail['entry_self_s_per_op'] * 1e3:.2f} ms/op; the spans account for"
            f" the untraced op time within the overhead:"
            f" {'yes' if 1 - share <= abs(overhead - 1) else 'no'}",
            f"- ops: {detail['untraced_ops']} untraced, {detail['traced_ops']} traced;"
            f" failed share {detail['metrics']['failed_share']['value']}",
            "",
            "| rank | layer | self ms/op | share of untraced op |",
            "|---:|---|---:|---:|",
        ]
        for rank, (name, value) in enumerate(layers[:TOP], start=1):
            lines.append(f"| {rank} | `{name}` | {value * 1e3:.2f} | {value / untraced:.1%} |")
        tail = run["tail_op"]
        top = ", ".join(
            f"`{name}` {ms:.1f} ms" for name, ms in list(tail["layers_ms"].items())[:3]
        )
        lines += [
            "",
            f"Op at the tail rank (p{tail['percentile']:.0f} of the traced ops):"
            f" `{tail['kind']}`, {tail['ms']:.1f} ms;"
            + (
                f" most self time in {top}."
                if top
                # Server threads do not know which client op they serve.
                else " its layer spans run on server threads, not linked to the op."
            ),
            "",
        ]
    return "\n".join(lines + findings(runs))


def findings(runs: dict[str, dict]) -> list[str]:
    """What the ledger says about the two questions it was first run for."""
    paper = runs["paper_suite"]
    top = max(
        (name for name in paper["metrics"] if name.endswith("_s")),
        key=lambda name: paper["metrics"][name]["value"],
    )
    share = paper["metrics"][top]["value"] / paper["detail"]["untraced_latency_s_per_op"]
    tail = paper["tail_op"]
    tail_top = next(iter(tail["layers_ms"]), "none")
    verdict = "confirmed" if top == "compiler.place.anneal_s" else "refuted"
    return [
        "## Findings",
        "",
        f"- The top self-time layer of `paper_suite` is `{top[:-2]}`"
        f" ({share:.0%} of the mean op latency): the finding that annealing"
        f" placement (`AnnealingRefiner.refine`) dominates the Fig. 11/12 path"
        f" is {verdict}. `refine` is wrapped as a whole; its `_local_cost`"
        " calls are private and carry no span of their own.",
        f"- The `paper_suite` op at the `op_tail_ms` rank is `{tail['kind']}`;"
        f" its largest layer is `{tail_top}`, so the event engine"
        f" {'sets' if tail_top == 'sim.event' else 'does not set'} `op_tail_ms`"
        + (
            f" (`sim.event` {tail['layers_ms']['sim.event']:.0f} ms of {tail['ms']:.0f} ms)."
            if "sim.event" in tail["layers_ms"]
            else "."
        ),
        "",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    runs = {workload: traced(workload, args.seed, args.seconds) for workload in WORKLOADS}
    (HERE / "ledger.json").write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    text = render(runs, args.seconds)
    (HERE / "LEDGER.md").write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
