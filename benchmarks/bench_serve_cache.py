"""Serve-layer cache gate: a warm hit costs no more than an empty round trip.

Boots an embedded :class:`~repro.serve.client.LocalServer` on a throwaway
store, issues the same ``POST /v1/simulate`` request (matrixMul, dmt)
cold and then repeatedly warm over real HTTP, interleaved with empty
``GET /healthz`` round trips, and asserts:

* the cold request is a ``miss`` that simulates, every warm repeat is a
  ``hit`` that performs **zero** simulations (the service's own
  simulation counter must not move) and returns the cold run's record;
* the best warm round trip is within ``MAX_SLACK_S`` (10 ms) of the best
  ``/healthz`` round trip measured in the same run — the transport
  floor.  A hit is a store lookup plus serialisation; the cheapest real
  work a broken hit could redo, recompiling the kernel, costs ~26-32 ms
  on a 2-vCPU VM (simulating it ~26-33 ms), so it lands outside the slack.

Usage::

    pytest benchmarks/bench_serve_cache.py -s
    python benchmarks/bench_serve_cache.py [--dim N] [--repeats N] [--json out.json]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from benchmarks.common import add_json_option, write_json
from repro.serve.client import LocalServer

#: Allowed gap between the best warm hit and the best ``/healthz`` round
#: trip.  On a 2-vCPU VM warm hits sit 1.1-1.4 ms over the floor, so 2 ms
#: would leave too little margin for a noisy runner; a hit that recompiles
#: the dim=16 kernel (~26-32 ms there) still overshoots 10 ms.
MAX_SLACK_S = 0.010


def _measure(dim: int, repeats: int) -> dict:
    body = {"workload": "matrixMul", "variant": "dmt", "params": {"dim": dim}}
    store = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        with LocalServer(store_dir=store) as server:
            started = time.perf_counter()
            status, cold = server.request("POST", "/v1/simulate", body)
            cold_s = time.perf_counter() - started
            assert status == 200 and cold["cache"] == "miss", (status, cold.get("cache"))
            assert cold["status"] == "ok", cold

            simulations = server.service.metrics.counter("serve.simulations")
            warm_times = []
            floor_times = []
            for _ in range(repeats):
                started = time.perf_counter()
                status, _ = server.request("GET", "/healthz")
                floor_times.append(time.perf_counter() - started)
                assert status == 200, status
                started = time.perf_counter()
                status, warm = server.request("POST", "/v1/simulate", body)
                warm_times.append(time.perf_counter() - started)
                assert status == 200 and warm["cache"] == "hit", (status, warm.get("cache"))
            assert server.service.metrics.counter("serve.simulations") == simulations, (
                "warm requests must perform zero simulations"
            )
            assert warm["record"] == cold["record"], "hit must return the cold run's record"
            warm_s = min(warm_times)
            floor_s = min(floor_times)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return {
        "dim": dim,
        "cycles": cold["record"]["result"]["cycles"],
        "cold_s": cold_s,
        "warm_s": warm_s,
        "floor_s": floor_s,
        "slack_s": warm_s - floor_s,
        "speedup": cold_s / max(warm_s, 1e-9),
    }


def _print_table(row: dict) -> None:
    print(f"\nserved matrixMul dmt dim={row['dim']} ({row['cycles']} cycles):")
    header = f"{'request':>8} {'wall [s]':>10} {'cache':>6}"
    print(header)
    print("-" * len(header))
    print(f"{'cold':>8} {row['cold_s']:>10.3f} {'miss':>6}")
    print(f"{'warm':>8} {row['warm_s']:>10.4f} {'hit':>6}")
    print(f"{'healthz':>8} {row['floor_s']:>10.4f} {'-':>6}")
    print(
        f"warm hit is {row['slack_s'] * 1e3:.2f} ms over the /healthz floor "
        f"(gate: <= {MAX_SLACK_S * 1e3:.0f} ms); {row['speedup']:.0f}x faster than cold"
    )


def _failures(row: dict) -> list[str]:
    if row["slack_s"] <= MAX_SLACK_S:
        return []
    return [
        f"warm hit {row['warm_s'] * 1e3:.2f} ms is {row['slack_s'] * 1e3:.2f} ms over the "
        f"/healthz floor {row['floor_s'] * 1e3:.2f} ms (gate: <= {MAX_SLACK_S * 1e3:.0f} ms)"
    ]


def test_warm_hit_stays_within_slack_of_the_healthz_floor():
    row = _measure(dim=16, repeats=5)
    _print_table(row)
    failures = _failures(row)
    assert not failures, failures[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=5)
    add_json_option(parser)
    args = parser.parse_args(argv)
    row = _measure(dim=args.dim, repeats=args.repeats)
    _print_table(row)
    failures = _failures(row)
    write_json(args.json, "serve_cache", [row], failures=failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
