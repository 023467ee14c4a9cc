"""CLI for exploration campaigns: ``python -m repro.explore run|status|report``."""

from __future__ import annotations

import argparse
import sys

from repro.errors import ExplorationError
from repro.explore.analysis import render_campaign_report
from repro.explore.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.explore.runner import campaign_status, run_campaign
from repro.explore.spec import CampaignSpec
from repro.obs.log import configure


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Run, inspect and analyse design-space exploration campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="path to the campaign spec (JSON)")
        p.add_argument(
            "--cache-dir",
            default=str(DEFAULT_CACHE_DIR),
            help="result cache directory (default: %(default)s)",
        )

    run = sub.add_parser("run", help="simulate every uncached point of a campaign")
    add_common(run)
    run.add_argument("--jobs", type=int, default=1, help="worker processes (default: %(default)s)")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    run.add_argument(
        "--rerun-errors",
        action="store_true",
        help="invalidate cached error records and re-simulate their points",
    )

    status = sub.add_parser("status", help="show how much of a campaign is cached")
    add_common(status)

    report = sub.add_parser("report", help="render tables from cached records")
    add_common(report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Progress rides the repro.* logging tree (stdout, so quiet campaign
    # output stays pipeable exactly like the previous print-based CLI).
    configure(verbosity=0 if getattr(args, "quiet", False) else 1, stream=sys.stdout)
    try:
        spec = CampaignSpec.from_file(args.spec)
        if args.command == "run":
            result = run_campaign(
                spec,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                rerun_errors=args.rerun_errors,
            )
            if args.quiet:
                print(result.summary())
            return 1 if result.errors else 0
        if args.command == "status":
            counts = campaign_status(spec, cache_dir=args.cache_dir)
            print(
                f"campaign '{spec.name}': {counts['points']} points, "
                f"{counts['cached']} cached ({counts['errors']} errors), "
                f"{counts['missing']} missing"
            )
            return 0
        # report
        cache = ResultCache(args.cache_dir).load()
        points = spec.expand()
        records = [record for p in points if (record := cache.get(p.key()))]
        missing = len(points) - len(records)
        if missing:
            print(
                f"note: {missing}/{len(points)} points are not cached yet "
                f"(run the campaign first for a complete report)",
                file=sys.stderr,
            )
        print(render_campaign_report(spec, records, cached=[True] * len(records)))
        return 0
    except ExplorationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
