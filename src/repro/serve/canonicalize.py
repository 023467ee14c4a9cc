"""Request canonicalization: JSON bodies to the digests every cache keys on.

The server's whole memoisation story rests on one rule: **two requests
that mean the same simulation must hash to the same key**, no matter how
they are spelled.  This module owns that rule, and it owns none of it
itself — a simulate body is folded into the exact
:class:`~repro.explore.spec.RunPoint` identity the explore subsystem
already caches by (SHA-256 over canonical config + workload + resolved
params + variant + engine + seed + schema version), so the server, the
campaign runner and any offline tooling share one key space and one
persistent store.

Two digests matter per request:

* ``RunPoint.key()`` — the *simulation* identity (config included); the
  key of the JSONL record store and the single-flight table.
* :func:`kernel_digest` — the *kernel* identity (workload + variant +
  resolved params, config excluded); the grouping key of
  characterization tables, under which many config digests' rows
  accumulate.

Validation is eager and loud: unknown body keys, unknown workloads, a
variant the workload does not build, parameter typos, illegal config
overrides — every one of them raises :class:`ServeError` with an HTTP
status before any simulation time is spent.  Point legality is
:class:`RunPoint`'s one rule, shared with campaign specs; this module
adds only the JSON-shape checks and compile's "no ``fermi``" rule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping

from repro.config.system import config_digest
from repro.errors import ConfigurationError, ExplorationError, ReproError, WorkloadError
from repro.explore.spec import CACHE_SCHEMA_VERSION, RunPoint, resolved_base_config
from repro.graph.dfg import DataflowGraph
from repro.workloads.registry import get_workload

__all__ = [
    "CanonicalRequest",
    "ServeError",
    "build_graph",
    "canonical_from_point",
    "canonicalize_compile",
    "canonicalize_simulate",
    "kernel_digest",
]

_SIMULATE_KEYS = {"workload", "variant", "engine", "seed", "params", "config", "overrides"}
_COMPILE_KEYS = {"workload", "variant", "params", "config"}


class ServeError(ReproError):
    """A request the server must refuse, carrying its HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


@dataclass(frozen=True)
class CanonicalRequest:
    """One validated request, reduced to the identities the caches use."""

    point: RunPoint
    #: ``point.key()`` — record-store / single-flight key.
    key: str
    #: SHA-256 of the fully resolved :class:`SystemConfig`.
    config_digest: str
    #: Config-independent kernel identity (characterization grouping key).
    kernel_digest: str

    @property
    def workload(self) -> str:
        return self.point.workload

    @property
    def variant(self) -> str:
        return self.point.variant


@lru_cache(maxsize=4096)
def _kernel_digest(workload: str, variant: str, params_blob: str) -> str:
    resolved = get_workload(workload).params_with_defaults(json.loads(params_blob))
    blob = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": workload,
            "variant": variant,
            "params": resolved,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def kernel_digest(workload: str, variant: str, params: Mapping[str, Any] | None = None) -> str:
    """Config-independent identity of one kernel (workload/variant/params).

    Parameters are resolved against the workload's defaults first, so
    ``{}`` and an explicit ``{"dim": 16}`` (the default) digest
    identically — the same normalisation :meth:`RunPoint.key` applies.
    Raises :class:`~repro.errors.WorkloadError` for unknown workloads or
    parameter typos.
    """
    params_blob = json.dumps(dict(params or {}), sort_keys=True, separators=(",", ":"))
    return _kernel_digest(str(workload), str(variant), params_blob)


def _scalar_mapping(value: Any, field: str) -> dict[str, Any]:
    value = value or {}
    if not isinstance(value, Mapping):
        raise ServeError(f"'{field}' must be a JSON object")
    out: dict[str, Any] = {}
    for key, item in value.items():
        if isinstance(item, (dict, list)):
            raise ServeError(f"'{field}.{key}' must be a scalar, not {type(item).__name__}")
        out[str(key)] = item
    return out


def _point(body: Any, what: str, allowed: set[str]) -> RunPoint:
    """The :class:`RunPoint` a request body names, or a ``ServeError``.

    Only the JSON shape is checked here; whether the point is legal
    (workload, variant, engine, seed, params) is :class:`RunPoint`'s rule.
    Keys outside ``allowed`` are refused, so a compile body never sets
    the engine, seed or overrides: they keep the point's defaults.
    """
    if not isinstance(body, Mapping):
        raise ServeError(f"{what} must be a JSON object")
    unknown = set(body) - allowed
    if unknown:
        raise ServeError(
            f"unknown request key(s) {sorted(unknown)}; expected a subset of {sorted(allowed)}"
        )
    workload = body.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ServeError("'workload' is required and must be a string")
    params = _scalar_mapping(body.get("params"), "params")
    overrides = _scalar_mapping(body.get("overrides"), "overrides")
    config = body.get("config") or {}
    if not isinstance(config, Mapping):
        raise ServeError("'config' must be a (partial) nested config object")
    try:
        base = resolved_base_config(config)
    except ConfigurationError as exc:
        raise ServeError(f"invalid config: {exc}") from exc
    try:
        return RunPoint(
            workload=workload,
            variant=body.get("variant", "dmt"),
            engine=body.get("engine", "auto"),
            seed=body.get("seed", 0),
            params=tuple(sorted(params.items())),
            overrides=tuple(sorted(overrides.items())),
            base_config=base,
        )
    except ExplorationError as exc:
        raise ServeError(str(exc)) from exc


def canonicalize_simulate(body: Any) -> CanonicalRequest:
    """Validate a ``POST /v1/simulate`` body and derive its digests.

    Accepted keys: ``workload`` (required), ``variant``, ``engine``,
    ``seed``, ``params`` (workload parameters), ``config`` (partial
    nested :class:`SystemConfig` merged over the Table 2 defaults) and
    ``overrides`` (dotted-path config overrides, the sweep-axis form).
    """
    point = _point(body, "simulate request", _SIMULATE_KEYS)
    try:
        key = point.key()
        digest = config_digest(point.config_dict())
    except (ExplorationError, ConfigurationError) as exc:
        raise ServeError(str(exc)) from exc
    return CanonicalRequest(
        point=point,
        key=key,
        config_digest=digest,
        kernel_digest=kernel_digest(point.workload, point.variant, dict(point.params)),
    )


def canonical_from_point(point: RunPoint) -> CanonicalRequest:
    """Wrap an already-validated :class:`RunPoint` (explore expansion path).

    A point validates itself on construction, so a campaign's expanded
    points skip the body checks and go straight to the digests,
    guaranteeing a served campaign and an offline ``python -m repro.explore
    run`` of the same spec key into the same store entries.
    """
    return CanonicalRequest(
        point=point,
        key=point.key(),
        config_digest=config_digest(point.config_dict()),
        kernel_digest=kernel_digest(point.workload, point.variant, dict(point.params)),
    )


def canonicalize_compile(body: Any) -> CanonicalRequest:
    """Validate a ``POST /v1/compile`` body and derive its digests.

    Accepted keys: ``workload`` (required), ``variant``, ``params``,
    ``config``.  The SIMT baseline (``fermi``) has no CGRA kernel and is
    rejected.  The returned ``key`` is the compile-cache key
    (``kernel digest + config digest`` — compilation is pure w.r.t.
    those two identities).
    """
    point = _point(body, "compile request", _COMPILE_KEYS)
    if point.variant == "fermi":
        raise ServeError("variant 'fermi' is the SIMT baseline and has no CGRA kernel")
    try:
        digest = config_digest(point.config_dict())
    except ConfigurationError as exc:
        raise ServeError(str(exc)) from exc
    kdigest = kernel_digest(point.workload, point.variant, dict(point.params))
    return CanonicalRequest(
        point=point,
        key=f"{kdigest}:{digest}",
        config_digest=digest,
        kernel_digest=kdigest,
    )


def build_graph(workload_name: str, variant: str, params: Mapping[str, Any]) -> DataflowGraph:
    """Build the dataflow graph of one kernel (no input data required)."""
    workload = get_workload(workload_name)
    resolved = workload.params_with_defaults(dict(params))
    try:
        return workload.build_graph(variant, resolved)
    except WorkloadError as exc:
        raise ServeError(str(exc)) from exc
