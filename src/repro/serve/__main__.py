"""CLI: ``python -m repro.serve`` — run the simulation server.

Binds the asyncio HTTP server and blocks until interrupted.  The record
store defaults to the explore subsystem's ``.explore-cache/`` directory,
so campaigns run offline pre-warm the server and served traffic
back-fills future campaigns.

Usage::

    python -m repro.serve [--host 127.0.0.1] [--port 8787]
                          [--store-dir .explore-cache]
                          [--workers N] [--kernel-lru 64] [--quiet]

``--workers 0`` runs simulations on in-process threads (useful for
single-user or test setups); the default is one worker process per CPU.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys

from repro.explore.cache import DEFAULT_CACHE_DIR
from repro.obs.log import configure
from repro.serve.app import ReproServer
from repro.serve.handlers import SimulationService


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve memoised compile/simulate/explore requests over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8787, help="bind port (default: %(default)s)")
    parser.add_argument(
        "--store-dir",
        default=str(DEFAULT_CACHE_DIR),
        help="persistent record store directory, shared with repro.explore "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation worker processes (default: CPU count; 0 = in-process threads)",
    )
    parser.add_argument(
        "--kernel-lru",
        type=int,
        default=64,
        help="compile responses kept in memory (default: %(default)s)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress request logging")
    return parser


async def _serve(args: argparse.Namespace) -> None:
    service = SimulationService(
        args.store_dir, workers=args.workers, kernel_lru=args.kernel_lru
    )
    server = ReproServer(service, host=args.host, port=args.port)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.close()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    configure(verbosity=0 if args.quiet else 1, stream=sys.stderr)
    with contextlib.suppress(KeyboardInterrupt, asyncio.CancelledError):
        asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
