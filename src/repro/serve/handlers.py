"""Endpoint logic of the simulation service (transport-agnostic).

:class:`SimulationService` implements what each route *means* — the HTTP
layer in :mod:`repro.serve.app` only parses requests and serialises the
returned payloads.  Handlers are ``async`` and run on the event loop;
anything that takes real time (a compile, a 30-second event-engine
simulation) is pushed onto a worker pool through
:meth:`asyncio.loop.run_in_executor`, so the loop keeps accepting and
answering cached requests while simulations run.

The memoisation path of one simulate request::

    body ──canonicalize──▶ RunPoint.key ──store.get──▶ hit?  ──▶ record
                                         │ miss
                                         ▼
                              single-flight table ──▶ already running? await it
                                         │ first
                                         ▼
                              worker pool: execute_point  (the explore
                              subsystem's worker — records are
                              byte-compatible with campaign records)
                                         │
                                         ▼
                              store.put (persists, serves every future
                              request and every explore campaign)
"""

from __future__ import annotations

import asyncio
import os
import time
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Mapping

from repro.analyze.manager import analyze_kernel
from repro.compiler.pipeline import compile_kernel, placement_memo
from repro.config.system import SystemConfig
from repro.errors import ExplorationError
from repro.explore.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.explore.runner import execute_point
from repro.explore.spec import CampaignSpec, RunPoint
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import KernelLRU, SingleFlight
from repro.serve.canonicalize import (
    CanonicalRequest,
    ServeError,
    build_graph,
    canonical_from_point,
    canonicalize_compile,
    canonicalize_simulate,
    kernel_digest,
)

__all__ = ["SimulationService"]

log = get_logger("serve")


def _compile_point(
    workload: str, variant: str, params: Mapping[str, Any], config: SystemConfig
) -> dict[str, Any]:
    """Worker-side compile: build the graph, compile, analyze (blocking).

    Returns the ``POST /v1/compile`` payload; the compiled kernel itself
    is dropped here, since no response reads it.
    """
    graph = build_graph(workload, variant, params)
    with warnings.catch_warnings():
        # Analyzer warnings become diagnostics in the response body; the
        # server process's stderr is not the place for them.
        warnings.simplefilter("ignore")
        compiled = compile_kernel(graph, config)
    analysis = analyze_kernel(compiled)
    return {
        "analysis": analysis.to_dict(),
        "kernel": {
            "name": compiled.name,
            "replicas": compiled.replicas,
            "num_threads": compiled.num_threads,
            "nodes": len(compiled.graph),
            "edges": compiled.graph.num_edges(),
            "elevator_nodes": len(compiled.elevator_nodes()),
            "eldst_nodes": len(compiled.eldst_nodes()),
            "spilled_nodes": len(compiled.spilled_nodes()),
            "uses_barriers": compiled.uses_barriers(),
        },
        "report": compiled.report(),
    }


class SimulationService:
    """State and behaviour behind the server's endpoints."""

    def __init__(
        self,
        store_dir: str | Path = DEFAULT_CACHE_DIR,
        *,
        workers: int | None = None,
        kernel_lru: int = 64,
        store: ResultCache | None = None,
    ) -> None:
        #: Persistent simulate memo — the explore subsystem's store class
        #: and, by default, its directory.
        self.store = store if store is not None else ResultCache(store_dir)
        self.kernels = KernelLRU(kernel_lru)
        self.flights = SingleFlight()
        self.metrics = MetricsRegistry()
        #: ``workers=0`` runs simulations on an in-process thread pool
        #: (cheap startup — tests, benchmarks, single-user CLIs);
        #: ``workers>=1`` forks a process pool of that size (the serving
        #: default: simulations are CPU-bound Python, so processes are
        #: what actually scales on a multi-core host).
        self.workers = os.cpu_count() or 1 if workers is None else int(workers)
        self._sim_pool: Executor | None = None
        self._compile_pool: ThreadPoolExecutor | None = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "SimulationService":
        """Load the store and create the worker pools (idempotent)."""
        self.store.load()
        if self._sim_pool is None:
            if self.workers <= 0:
                self._sim_pool = ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="serve-sim"
                )
            else:
                self._sim_pool = ProcessPoolExecutor(max_workers=self.workers)
        if self._compile_pool is None:
            # Compiles are short and their payload goes straight into the
            # in-process LRU, so they always run on threads regardless of
            # the simulation pool flavour.
            self._compile_pool = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="serve-compile"
            )
        self._started_at = time.monotonic()
        return self

    def close(self) -> None:
        if self._sim_pool is not None:
            self._sim_pool.shutdown(wait=True)
            self._sim_pool = None
        if self._compile_pool is not None:
            self._compile_pool.shutdown(wait=True)
            self._compile_pool = None

    # ------------------------------------------------------------- internals
    async def _get_or_simulate(self, canonical: CanonicalRequest) -> tuple[dict, str]:
        """Serve one point from the store, or simulate it exactly once.

        Returns ``(record, cache)`` where ``cache`` is ``"hit"`` (store
        lookup), ``"miss"`` (this call simulated) or ``"coalesced"``
        (an identical concurrent request simulated; we awaited it).
        """
        self.metrics.inc("serve.lookups")
        record = self.store.get(canonical.key)
        if record is not None:
            self.metrics.inc("serve.cache.hits")
            return record, "hit"

        async def factory() -> dict:
            self.metrics.inc("serve.simulations")
            assert self._sim_pool is not None, "service not started"
            loop = asyncio.get_running_loop()
            with self.metrics.timer("serve.phase.simulate"):
                record = await loop.run_in_executor(
                    self._sim_pool, execute_point, canonical.point.payload()
                )
            self.store.put(canonical.key, record)
            return record

        record, coalesced = await self.flights.run(canonical.key, factory)
        self.metrics.inc("serve.cache.coalesced" if coalesced else "serve.cache.misses")
        return record, "coalesced" if coalesced else "miss"

    # ------------------------------------------------------------- endpoints
    async def simulate(self, body: Any) -> tuple[int, dict[str, Any]]:
        """``POST /v1/simulate`` — memoised run of one simulation point."""
        self.metrics.inc("serve.requests.simulate")
        with self.metrics.timer("serve.phase.canonicalize"):
            canonical = canonicalize_simulate(body)
        record, cache = await self._get_or_simulate(canonical)
        result = record.get("result") or {}
        return 200, {
            "key": canonical.key,
            "kernel_digest": canonical.kernel_digest,
            "config_digest": canonical.config_digest,
            "cache": cache,
            "status": record.get("status"),
            "record": record,
            "server": {"phases": dict(result.get("phases") or {})},
        }

    async def compile(self, body: Any) -> tuple[int, dict[str, Any]]:
        """``POST /v1/compile`` — memoised compile + static analysis."""
        self.metrics.inc("serve.requests.compile")
        with self.metrics.timer("serve.phase.canonicalize"):
            canonical = canonicalize_compile(body)
        payload = self.kernels.get(canonical.key)
        cache = "hit"
        if payload is None:

            async def factory() -> dict[str, Any]:
                self.metrics.inc("serve.compiles")
                assert self._compile_pool is not None, "service not started"
                loop = asyncio.get_running_loop()
                point = canonical.point
                with self.metrics.timer("serve.phase.compile"):
                    payload = await loop.run_in_executor(
                        self._compile_pool,
                        _compile_point,
                        point.workload,
                        point.variant,
                        dict(point.params),
                        point.config(),
                    )
                self.kernels.put(canonical.key, payload)
                return payload

            payload, coalesced = await self.flights.run("compile:" + canonical.key, factory)
            cache = "coalesced" if coalesced else "miss"
        return 200, {
            "kernel_digest": canonical.kernel_digest,
            "config_digest": canonical.config_digest,
            "cache": cache,
            "workload": canonical.workload,
            "variant": canonical.variant,
            **payload,
        }

    async def explore(self, body: Any) -> tuple[int, dict[str, Any]]:
        """``POST /v1/explore`` — run a whole campaign spec through the memo.

        The body is a campaign spec in the exact JSON form
        ``python -m repro.explore run`` takes.  Every expanded point goes
        through the same store/single-flight path as ``/v1/simulate``
        (duplicates across concurrent campaigns collapse too); the
        response summarises per-point provenance.
        """
        self.metrics.inc("serve.requests.explore")
        try:
            spec = CampaignSpec.from_dict(body)
            points = spec.expand()
        except ExplorationError as exc:
            raise ServeError(str(exc)) from exc

        async def one(point: RunPoint) -> dict[str, Any]:
            canonical = canonical_from_point(point)
            record, cache = await self._get_or_simulate(canonical)
            result = record.get("result") or {}
            return {
                "key": canonical.key,
                "kernel_digest": canonical.kernel_digest,
                "config_digest": canonical.config_digest,
                "label": point.label(),
                "cache": cache,
                "status": record.get("status"),
                "cycles": result.get("cycles"),
                "energy_pj": result.get("energy_pj"),
                "error": record.get("error"),
            }

        rows = await asyncio.gather(*(one(point) for point in points))
        by_cache = {kind: sum(1 for r in rows if r["cache"] == kind) for kind in
                    ("hit", "miss", "coalesced")}
        return 200, {
            "campaign": spec.name,
            "points": len(rows),
            "hits": by_cache["hit"],
            "misses": by_cache["miss"],
            "coalesced": by_cache["coalesced"],
            "errors": sum(1 for r in rows if r["status"] != "ok"),
            "results": list(rows),
        }

    def characterization(self, digest: str) -> tuple[int, dict[str, Any]]:
        """``GET /v1/kernels/<digest>/characterization``.

        Aggregates every stored record of one kernel into its
        latency/energy-per-config lookup table: one row per cached
        (config digest, engine, seed) — the repeat-traffic answer shape
        (cf. ``get_latency_cc``-style characterization tables).
        """
        self.metrics.inc("serve.requests.characterization")
        rows: list[dict[str, Any]] = []
        meta: dict[str, Any] | None = None
        error_records = 0
        for key, record in self.store.items():
            point = record.get("point") or {}
            try:
                kdigest = kernel_digest(
                    point["workload"], point["variant"], point.get("params") or {}
                )
            except Exception:  # noqa: BLE001 - foreign records never 500 the table
                continue
            if kdigest != digest:
                continue
            if meta is None:
                meta = {
                    "workload": point["workload"],
                    "variant": point["variant"],
                    "params": point.get("params") or {},
                }
            if record.get("status") != "ok":
                error_records += 1
                continue
            result = record.get("result") or {}
            counters = result.get("counters") or {}
            rows.append(
                {
                    "key": key,
                    "config_digest": point.get("config_digest"),
                    "overrides": point.get("overrides") or {},
                    "engine": point.get("engine"),
                    "resolved_engine": counters.get("engine"),
                    "cores": counters.get("cores"),
                    "seed": point.get("seed"),
                    "cycles": result.get("cycles"),
                    "static_min_cycles": counters.get("static_min_cycles"),
                    "energy_pj": result.get("energy_pj"),
                    "energy": result.get("energy") or {},
                    "outputs_digest": result.get("outputs_digest"),
                }
            )
        if meta is None:
            raise ServeError(f"no cached records for kernel digest '{digest}'", status=404)
        rows.sort(key=lambda r: (str(r["config_digest"]), str(r["engine"]), int(r["seed"] or 0)))
        return 200, {
            "kernel_digest": digest,
            **meta,
            "rows": rows,
            "error_records": error_records,
        }

    def kernels_index(self) -> tuple[int, dict[str, Any]]:
        """``GET /v1/kernels`` — every kernel the store has rows for."""
        self.metrics.inc("serve.requests.kernels")
        groups: dict[str, dict[str, Any]] = {}
        for _, record in self.store.items():
            point = record.get("point") or {}
            try:
                kdigest = kernel_digest(
                    point["workload"], point["variant"], point.get("params") or {}
                )
            except Exception:  # noqa: BLE001
                continue
            group = groups.setdefault(
                kdigest,
                {
                    "kernel_digest": kdigest,
                    "workload": point["workload"],
                    "variant": point["variant"],
                    "params": point.get("params") or {},
                    "records": 0,
                    "ok_records": 0,
                },
            )
            group["records"] += 1
            if record.get("status") == "ok":
                group["ok_records"] += 1
        kernels = sorted(
            groups.values(), key=lambda g: (g["workload"], g["variant"], g["kernel_digest"])
        )
        return 200, {"kernels": kernels, "count": len(kernels)}

    def stats(self) -> tuple[int, dict[str, Any]]:
        """``GET /v1/stats`` — counters, hit ratios and phase timers."""
        self.metrics.inc("serve.requests.stats")
        metrics = self.metrics
        placements = placement_memo.cache_info()
        return 200, {
            "uptime_s": time.monotonic() - self._started_at,
            "workers": self.workers,
            "store": {"path": str(self.store.path), "records": len(self.store)},
            "kernel_lru": self.kernels.stats(),
            "placements": {
                "hits": placements.hits,
                "misses": placements.misses,
                "size": placements.currsize,
                "capacity": placements.maxsize,
            },
            "cache": {
                "lookups": metrics.counter("serve.lookups"),
                "hits": metrics.counter("serve.cache.hits"),
                "misses": metrics.counter("serve.cache.misses"),
                "coalesced": metrics.counter("serve.cache.coalesced"),
                "hit_ratio": metrics.ratio("serve.cache.hits", "serve.lookups"),
            },
            "simulations": metrics.counter("serve.simulations"),
            "compiles": metrics.counter("serve.compiles"),
            "inflight": len(self.flights),
            "metrics": metrics.snapshot("serve."),
        }

    def healthz(self) -> tuple[int, dict[str, Any]]:
        """``GET /healthz`` — liveness (never touches store or pools)."""
        return 200, {"status": "ok"}
