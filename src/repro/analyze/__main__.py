"""CLI for the static kernel analyzer.

Examples::

    python -m repro.analyze convolution                # all variants
    python -m repro.analyze scan --variant dmt         # one kernel
    python -m repro.analyze --registry                 # every workload x variant
    python -m repro.analyze --registry --json out.json # machine-readable gate

The ``--json`` record uses the same shape as the ``benchmarks/`` gate
runners (``benchmark``/``ok``/``failures``/``rows``/``python``) so the
CI merge step folds it into ``BENCH_ci.json`` unchanged.  ``ok`` means
every analyzed kernel is clean: no error or warning diagnostics (INFO
verdicts such as shard-fallback classifications are expected and fine).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any

from repro.analyze.manager import AnalysisResult, analyze_kernel
from repro.workloads.base import GRAPH_VARIANTS


def _row(name: str, variant: str, result: AnalysisResult) -> dict[str, Any]:
    return {
        "workload": name,
        "variant": variant,
        "ok": result.ok,
        "engine": result.engine,
        "order_stable": result.order_stable,
        "deadlock": result.deadlock,
        "shardable": result.shard.shardable,
        "shard_fallback_code": result.shard.fallback_code,
        "window_lcm": result.shard.window_lcm,
        "min_cycles": result.min_cycles,
        "codes": result.codes(),
    }


def _print_report(name: str, variant: str, result: AnalysisResult) -> None:
    verdict = "clean" if result.ok else "NOT CLEAN"
    print(f"== {name} [{variant}] -- {verdict}")
    print(
        f"   engine={result.engine} order_stable={result.order_stable} "
        f"shardable={result.shard.shardable} min_cycles={result.min_cycles}"
    )
    for diagnostic in result.diagnostics:
        print(f"   {diagnostic.format()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("workload", nargs="?", help="Table 3 workload name")
    parser.add_argument(
        "--variant",
        action="append",
        choices=GRAPH_VARIANTS,
        help="graph variant(s) to analyze (default: all available)",
    )
    parser.add_argument(
        "--registry",
        action="store_true",
        help="analyze every registry workload x available variant",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="PATH",
        help="emit a machine-readable record (to PATH, or stdout with no PATH)",
    )
    args = parser.parse_args(argv)

    from repro.compiler.pipeline import compile_kernel
    from repro.errors import WorkloadError
    from repro.workloads.registry import (
        available_variants,
        check_variant,
        get_workload,
        registry_kernels,
    )

    if args.registry:
        targets = registry_kernels()
    elif args.workload:
        try:
            workload = get_workload(args.workload)
            variants = args.variant or list(available_variants(workload))
            for variant in variants:
                check_variant(workload, variant)
        except WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        targets = [(workload, v) for v in variants]
    else:
        parser.error("give a workload name or --registry")

    rows: list[dict[str, Any]] = []
    failures: list[str] = []
    for workload, variant in targets:
        graph = workload.build_graph(variant, workload.default_params())
        result = analyze_kernel(compile_kernel(graph))
        rows.append(_row(workload.name, variant, result))
        for diagnostic in result.errors() + result.warnings():
            failures.append(f"{workload.name}/{variant}: {diagnostic.format()}")
        if not args.json or args.json != "-":
            _print_report(workload.name, variant, result)

    if args.json:
        payload = {
            "benchmark": "analyze_registry",
            "ok": not failures,
            "failures": failures,
            "rows": rows,
            "python": platform.python_version(),
        }
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            directory = os.path.dirname(os.path.abspath(args.json))
            os.makedirs(directory, exist_ok=True)
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
