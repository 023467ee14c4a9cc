"""Parallel, cached execution of exploration campaigns.

The runner takes the :class:`~repro.explore.spec.RunPoint` set of a
campaign, consults the :class:`~repro.explore.cache.ResultCache`, and
simulates only the missing points — serially for ``jobs=1``, otherwise on
a :class:`concurrent.futures.ProcessPoolExecutor`.  Workers receive plain
picklable payloads and return plain records; a point that fails (bad
parameters, deadlock, ...) produces an ``"error"`` record instead of
aborting the campaign.  Every completed record is appended to the cache
immediately, so an interrupted campaign resumes for free.

Each successful record carries the static analyzer's output alongside
the measured counters: ``result["diagnostics"]`` holds the ``RA0xx``
findings for the compiled kernel and
``result["counters"]["static_min_cycles"]`` the critical-path lower
bound, so campaign post-processing can split sharded from fallback runs
(``RA03x``) or compare measured cycles against the static bound without
re-compiling anything.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config.system import SystemConfig, config_digest
from repro.errors import ExplorationError
from repro.explore.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.explore.spec import CampaignSpec, RunPoint
from repro.harness import experiments
from repro.obs.log import get_logger

__all__ = ["CampaignResult", "PointOutcome", "execute_point", "run_campaign"]

log = get_logger("explore")


def _point_meta(payload: dict[str, Any]) -> dict[str, Any]:
    """The ``"point"`` part of a record: what was run, minus the config."""
    return {
        "workload": payload["workload"],
        "variant": payload["variant"],
        "engine": payload["engine"],
        "seed": payload["seed"],
        "params": dict(payload.get("params", {})),
        "overrides": dict(payload.get("overrides", {})),
        "config_digest": config_digest(payload["config"]),
    }


def execute_point(payload: dict[str, Any]) -> dict[str, Any]:
    """Simulate one point from its plain-data payload (worker entry point).

    Top-level and pure so it pickles into worker processes, and returns
    :meth:`~repro.harness.experiments.RunResult.to_record` output, so no
    graph, memory image or NumPy view crosses the pickle boundary.
    Failures are captured into the returned record — a worker never lets
    an exception escape for an individual point.
    """
    started = time.perf_counter()
    point_meta = _point_meta(payload)
    try:
        result = experiments.run_workload(
            payload["workload"],
            payload["variant"],
            params=payload.get("params") or None,
            seed=int(payload["seed"]),
            config=SystemConfig.from_dict(payload["config"]),
            engine=payload["engine"],
        ).to_record()
        status: dict[str, Any] = {"status": "ok", "result": result}
    except Exception as exc:  # noqa: BLE001 - per-point capture is the contract
        status = {
            "status": "error",
            "result": None,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    return {
        "point": point_meta,
        "duration_s": time.perf_counter() - started,
        **status,
    }


@dataclass(frozen=True)
class PointOutcome:
    """One campaign point together with how its record was obtained."""

    point: RunPoint
    key: str
    record: dict[str, Any]
    cached: bool

    @property
    def ok(self) -> bool:
        return self.record.get("status") == "ok"


@dataclass
class CampaignResult:
    """Everything a finished (or resumed) campaign produced."""

    spec: CampaignSpec
    outcomes: list[PointOutcome] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def misses(self) -> int:
        return self.total - self.hits

    @property
    def errors(self) -> list[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def records(self) -> list[dict[str, Any]]:
        """The raw per-point records, in campaign point order."""
        return [o.record for o in self.outcomes]

    def summary(self) -> str:
        return (
            f"campaign '{self.spec.name}': {self.total} points, "
            f"{self.hits} cached, {self.misses} simulated, "
            f"{len(self.errors)} errors in {self.duration_s:.2f}s"
        )


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    cache: ResultCache | None = None,
    rerun_errors: bool = False,
) -> CampaignResult:
    """Run every point of ``spec`` that is not already cached.

    ``jobs=1`` runs in-process (deterministic ordering, easy debugging);
    ``jobs>1`` fans the missing points out over a process pool.  Records
    are appended to the cache the moment they complete, so killing the
    campaign loses at most the points currently in flight.

    ``rerun_errors=True`` additionally invalidates cached *error* records:
    their points are re-simulated (and the fresh record — ok or error —
    replaces the cached one, the appended line winning on the next load).
    Successful records are never invalidated.
    """
    if jobs < 1:
        raise ExplorationError("jobs must be >= 1")

    started = time.perf_counter()

    points = spec.expand()
    keys = [point.key() for point in points]
    cache = cache if cache is not None else ResultCache(cache_dir)
    cache.load()

    def cached_ok(key: str) -> bool:
        record = cache.get(key)
        if record is None:
            return False
        return not (rerun_errors and record.get("status") != "ok")

    # Deduplicate within the campaign: identical points share one record.
    pending: dict[str, RunPoint] = {}
    for point, key in zip(points, keys):
        if not cached_ok(key) and key not in pending:
            pending[key] = point
    # Progress lines go to the ``repro.explore`` logger (enable with
    # ``repro.obs.log.configure``).
    log.info(
        f"campaign '{spec.name}': {len(points)} points "
        f"({len(points) - len(pending)} cached, {len(pending)} to simulate, "
        f"jobs={jobs})"
    )

    completed = 0
    fresh: dict[str, dict[str, Any]] = {}

    def note(key: str, record: dict[str, Any], persist: bool = True) -> None:
        nonlocal completed
        completed += 1
        fresh[key] = record
        if persist:
            cache.put(key, record)
        label = pending[key].label()
        if record.get("status") == "ok":
            result = record["result"]
            phases = result.get("phases") or {}
            sim = f" sim={phases['simulate']:.2f}s" if "simulate" in phases else ""
            log.info(
                f"  [{completed}/{len(pending)}] {label}: "
                f"cycles={result['cycles']} "
                f"energy={result['energy_pj'] / 1e6:.2f}uJ "
                f"({record['duration_s']:.2f}s{sim})"
            )
        else:
            log.info(f"  [{completed}/{len(pending)}] {label}: ERROR {record.get('error')}")

    if jobs == 1 or len(pending) <= 1:
        for key, point in pending.items():
            note(key, execute_point(point.payload()))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(execute_point, point.payload()): key
                for key, point in pending.items()
            }
            for future in as_completed(futures):
                key = futures[future]
                exc = future.exception()
                if exc is not None:
                    # Backstop: the pool itself failed (worker OOM-killed,
                    # unpicklable result, ...).  Report it for this run but
                    # do NOT cache it — unlike an in-simulation error this
                    # is transient infrastructure trouble, and a cached
                    # copy would never be retried.
                    record = {
                        "point": _point_meta(pending[key].payload()),
                        "status": "error",
                        "result": None,
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": "",
                        "duration_s": 0.0,
                    }
                    note(key, record, persist=False)
                else:
                    note(key, future.result())

    # A key is a "miss" only for the occurrence that simulated it; duplicate
    # points within one campaign are served by that same fresh record.
    simulated: set[str] = set()
    outcomes = []
    for point, key in zip(points, keys):
        is_miss = key in pending and key not in simulated
        if is_miss:
            simulated.add(key)
        outcomes.append(
            PointOutcome(
                point=point,
                key=key,
                record=fresh.get(key) or cache.get(key) or {},
                cached=not is_miss,
            )
        )
    result = CampaignResult(spec=spec, outcomes=outcomes, duration_s=time.perf_counter() - started)
    log.info(result.summary())
    return result


def campaign_status(
    spec: CampaignSpec, cache_dir: str | Path = DEFAULT_CACHE_DIR
) -> dict[str, int]:
    """How much of ``spec`` is already cached (no simulation)."""
    cache = ResultCache(cache_dir).load()
    points = spec.expand()
    cached = sum(1 for point in points if point.key() in cache)
    errors = sum(
        1
        for point in points
        if (record := cache.get(point.key())) and record.get("status") != "ok"
    )
    return {
        "points": len(points),
        "cached": cached,
        "missing": len(points) - cached,
        "errors": errors,
    }
