"""Campaign specifications for design-space exploration.

A :class:`CampaignSpec` is the declarative form of an evaluation campaign:
which workloads and graph variants to run, which RNG seeds, and — the
interesting part — a *sweep* over :class:`~repro.config.system.SystemConfig`
fields addressed by dotted paths (``token_buffer.entries``, ``grid.rows``,
``memory.dram.access_latency``, ``cores``).  :meth:`CampaignSpec.expand`
multiplies everything out into concrete, individually hashable
:class:`RunPoint` objects that the runner executes and the result cache
keys.

Sweep axes come in two flavours, mirroring the usual experiment-design
split:

* ``grid`` axes are combined as a cartesian product (every value of every
  axis against every other);
* ``zip`` axes advance in lockstep (i-th value of each axis together),
  for co-varied parameters such as ``grid.rows``/``grid.cols``.

The product of the grid combinations with the zip combinations, times
workloads x variants x engines x seeds, is the campaign's point set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.config.system import SystemConfig, canonical_config_json, default_system_config
from repro.errors import ExplorationError, WorkloadError
from repro.sim.api import ENGINES
from repro.workloads.base import check_seed
from repro.workloads.registry import check_variant, get_workload

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignSpec",
    "RunPoint",
    "apply_override",
    "resolved_base_config",
]

#: Bump when the meaning of a cached record changes (new counter semantics,
#: new key fields, ...); part of every point key, so a bump invalidates the
#: whole cache without deleting files.
#: v2: records carry ``result["outputs_digest"]`` (SHA-256 over the output
#: arrays), which the serve layer's bit-identity contract relies on.
#: v3: sharded batched runs queue on the shared DRAM device, so their cycles
#: changed while their config digests did not.
#: v4: scratchpad (``mt``) kernels run on the window-batched engine; their
#: cycles are unchanged but cached records would still say ``engine: event``.
CACHE_SCHEMA_VERSION = 4


def apply_override(config_data: dict[str, Any], path: str, value: Any) -> None:
    """Set ``path`` (dotted, e.g. ``token_buffer.entries``) in a config dict.

    Only existing leaves may be overridden — a typo in a sweep axis must
    fail loudly before any simulation time is spent.
    """
    parts = path.split(".")
    node: Any = config_data
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise ExplorationError(
                f"config override '{path}': no such group '{'.'.join(parts[: i + 1])}'"
            )
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ExplorationError(f"config override '{path}': no such field '{leaf}'")
    if isinstance(node[leaf], dict):
        raise ExplorationError(
            f"config override '{path}' addresses a group, not a field"
        )
    node[leaf] = value


@dataclass(frozen=True)
class RunPoint:
    """One concrete (workload x variant x engine x seed x config) run.

    ``overrides`` are the dotted-path config overrides of this point, kept
    as a sorted tuple so the point is hashable and its identity is
    insertion-order independent.

    A point is legal or is never built: construction raises
    :class:`ExplorationError` unless the workload is registered, builds
    the variant (:func:`~repro.workloads.registry.check_variant`), the
    engine is one of :data:`~repro.sim.api.ENGINES`, the seed passes
    :func:`~repro.workloads.base.check_seed` and the params resolve.
    Serve requests, campaign specs and their expansions all go through
    this one check.  Config overrides are checked when the key is taken.
    """

    workload: str
    variant: str
    engine: str = "auto"
    seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()
    overrides: tuple[tuple[str, Any], ...] = ()
    base_config: "SystemConfig | None" = None

    def __post_init__(self) -> None:
        try:
            workload = get_workload(self.workload)
            check_variant(workload, self.variant)
            check_seed(self.seed)
            workload.params_with_defaults(dict(self.params))
        except WorkloadError as exc:
            raise ExplorationError(str(exc)) from exc
        if self.engine not in ENGINES:
            raise ExplorationError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")

    def config_dict(self) -> dict[str, Any]:
        """The point's full configuration as a validated plain dict."""
        # ``1``, ``1.0`` and ``True`` are equal keys to the memo, but only
        # some of them fit a given config field, so the types are keyed too.
        typed = tuple((path, type(value), value) for path, value in self.overrides)
        return json.loads(_resolved_config_json(self.base_config, typed))

    def config(self) -> SystemConfig:
        return SystemConfig.from_dict(self.config_dict())

    def key(self) -> str:
        """Content-addressed identity of this point (stable across processes).

        SHA-256 over the canonical JSON of everything that determines the
        simulation's outcome: the full configuration, workload name and
        parameters, graph variant, engine, input seed, and the cache
        schema version.
        """
        identity = {
            "schema": CACHE_SCHEMA_VERSION,
            "config": self.config_dict(),
            "workload": self.workload,
            # Hash the *resolved* parameters (spec overrides merged over the
            # workload's defaults): a later change to a default must miss the
            # cache, not silently serve results computed for the old value.
            "params": get_workload(self.workload).params_with_defaults(dict(self.params)),
            "variant": self.variant,
            "engine": self.engine,
            "seed": self.seed,
        }
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable name for progress lines and reports."""
        knobs = ",".join(f"{path}={value}" for path, value in self.overrides)
        return (
            f"{self.workload}/{self.variant}"
            + (f"[{knobs}]" if knobs else "")
            + (f" seed={self.seed}" if self.seed else "")
        )

    def payload(self) -> dict[str, Any]:
        """Plain-data form shipped to worker processes (picklable)."""
        return {
            "workload": self.workload,
            "variant": self.variant,
            "engine": self.engine,
            "seed": self.seed,
            "params": dict(self.params),
            "overrides": dict(self.overrides),
            "config": self.config_dict(),
        }


@lru_cache(maxsize=4096)
def _resolved_config_json(
    base: "SystemConfig | None", overrides: tuple[tuple[str, type, Any], ...]
) -> str:
    """Canonical JSON of (base merged with overrides), validated, memoised.

    Rebuilding and re-validating the nested config dataclasses costs ~1 ms;
    campaigns re-derive the same few configurations for thousands of points
    across ``run``/``status``/``report``, so this cache makes point keys
    near-free.  The cached value is a string — callers ``json.loads`` it, so
    no shared mutable state escapes.
    """
    resolved = base if base is not None else default_system_config()
    data = resolved.to_dict()
    for path, _, value in overrides:
        apply_override(data, path, value)
    return canonical_config_json(SystemConfig.from_dict(data).to_dict())


def _axes(
    mapping: Mapping[str, Sequence[Any]], kind: str
) -> tuple[tuple[str, tuple[Any, ...]], ...]:
    axes = []
    for path, values in mapping.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ExplorationError(
                f"sweep {kind} axis '{path}' must be a non-empty list of values"
            )
        if len(set(values)) != len(values):
            raise ExplorationError(f"sweep {kind} axis '{path}' repeats a value: {list(values)}")
        axes.append((str(path), tuple(values)))
    return tuple(axes)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one exploration campaign."""

    name: str
    workloads: tuple[str, ...]
    variants: tuple[str, ...] = ("dmt",)
    engines: tuple[str, ...] = ("auto",)
    seeds: tuple[int, ...] = (0,)
    #: Per-workload parameter overrides, e.g. ``{"matrixMul": {"dim": 8}}``.
    params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    #: Cartesian-product axes: dotted config path -> list of values.
    grid: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    #: Lockstep axes: all must have the same length.
    zipped: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    #: Partial nested config dict merged over the Table 2 defaults before
    #: the sweep overrides are applied.
    base_config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ExplorationError("campaign spec needs a name")
        # An empty axis expands to no points: the campaign would run
        # nothing and its params would never be checked.
        for axis in ("workloads", "variants", "engines", "seeds"):
            if not getattr(self, axis):
                raise ExplorationError(f"campaign spec lists no {axis}")
        if self.zipped:
            lengths = {len(values) for _, values in self.zipped}
            if len(lengths) != 1:
                raise ExplorationError(
                    "zip sweep axes must all have the same length, got "
                    + ", ".join(f"{p}:{len(v)}" for p, v in self.zipped)
                )
        paths = [path for path, _ in self.grid] + [path for path, _ in self.zipped]
        duplicates = {path for path in paths if paths.count(path) > 1}
        if duplicates:
            raise ExplorationError(
                f"config path(s) {sorted(duplicates)} swept more than once "
                f"(a path may appear in 'grid' or 'zip', not both)"
            )
        for workload in self.params:
            if workload not in self.workloads:
                raise ExplorationError(
                    f"params given for '{workload}' which is not in the campaign"
                )
        # Every (workload, variant, engine, seed) must be a legal point
        # before any simulation time is spent: a bad one would otherwise
        # be cached as a permanent error record.
        for workload, variant, engine, seed in itertools.product(
            self.workloads, self.variants, self.engines, self.seeds
        ):
            RunPoint(workload, variant, engine, seed, _params(self.params, workload))

    # ------------------------------------------------------------- construction
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from its JSON form (see the module docstring)."""
        if not isinstance(data, Mapping):
            raise ExplorationError("campaign spec must be a JSON object")
        sweep = data.get("sweep", {})
        if not isinstance(sweep, Mapping):
            raise ExplorationError("'sweep' must be an object with 'grid'/'zip' keys")
        unknown = set(sweep) - {"grid", "zip"}
        if unknown:
            raise ExplorationError(f"unknown sweep key(s) {sorted(unknown)}")
        known = {
            "name",
            "workloads",
            "variants",
            "engines",
            "seeds",
            "params",
            "sweep",
            "base_config",
        }
        extra = set(data) - known
        if extra:
            raise ExplorationError(f"unknown campaign spec key(s) {sorted(extra)}")

        def string_list(field_name: str, default: tuple[str, ...]) -> tuple[str, ...]:
            values = data.get(field_name, default)
            # A bare string is iterable and would be tuple-ized into
            # characters ("unknown workload 'm'"); reject it explicitly.
            if not isinstance(values, (list, tuple)):
                raise ExplorationError(f"'{field_name}' must be a list of strings")
            return tuple(str(v) for v in values)

        params = data.get("params", {})
        if not isinstance(params, Mapping) or any(
            not isinstance(v, Mapping) for v in params.values()
        ):
            raise ExplorationError("'params' must map workload names to parameter objects")
        seeds = data.get("seeds", (0,))
        if not isinstance(seeds, (list, tuple)):
            raise ExplorationError("'seeds' must be a list of integers")
        base_config = data.get("base_config", {})
        if not isinstance(base_config, Mapping):
            raise ExplorationError("'base_config' must be a (partial) config object")
        return cls(
            name=str(data.get("name", "")),
            workloads=string_list("workloads", ()),
            variants=string_list("variants", ("dmt",)),
            engines=string_list("engines", ("auto",)),
            seeds=tuple(seeds),
            params={str(k): dict(v) for k, v in params.items()},
            grid=_axes(dict(sweep.get("grid", {})), "grid"),
            zipped=_axes(dict(sweep.get("zip", {})), "zip"),
            base_config=dict(base_config),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ExplorationError(f"campaign spec not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ExplorationError(f"campaign spec {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # ---------------------------------------------------------------- expansion
    def _resolved_base(self) -> SystemConfig:
        return resolved_base_config(self.base_config)

    def override_combos(self) -> list[tuple[tuple[str, Any], ...]]:
        """Every sweep combination as a sorted tuple of (path, value) pairs."""
        if self.grid:
            grid_combos = [
                tuple((path, value) for (path, _), value in zip(self.grid, values))
                for values in itertools.product(*(values for _, values in self.grid))
            ]
        else:
            grid_combos = [()]
        if self.zipped:
            zip_combos = [
                tuple((path, values[i]) for path, values in self.zipped)
                for i in range(len(self.zipped[0][1]))
            ]
        else:
            zip_combos = [()]
        combos = []
        for grid_combo in grid_combos:
            for zip_combo in zip_combos:
                combos.append(tuple(sorted(grid_combo + zip_combo)))
        return combos

    def expand(self) -> list[RunPoint]:
        """Multiply the campaign out into concrete run points."""
        base = self._resolved_base()
        points = []
        for workload in self.workloads:
            params = _params(self.params, workload)
            for variant, engine, seed, combo in itertools.product(
                self.variants, self.engines, self.seeds, self.override_combos()
            ):
                points.append(
                    RunPoint(
                        workload=workload,
                        variant=variant,
                        engine=engine,
                        seed=seed,
                        params=params,
                        overrides=combo,
                        base_config=base,
                    )
                )
        return points

    def swept_paths(self) -> tuple[str, ...]:
        """The dotted config paths this campaign varies (for sensitivity tables)."""
        return tuple(path for path, _ in self.grid) + tuple(path for path, _ in self.zipped)


def _params(
    params: Mapping[str, Mapping[str, Any]], workload: str
) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(dict(params.get(workload, {})).items()))


def _deep_merge(dst: dict[str, Any], src: Mapping[str, Any]) -> None:
    for key, value in src.items():
        if isinstance(value, Mapping) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = value


def resolved_base_config(partial: Mapping[str, Any] | None) -> SystemConfig:
    """A partial nested config dict merged over the Table 2 defaults.

    The shared canonicalization step of campaign specs (``base_config``)
    and serve requests (``config``): both accept a sparse override tree
    and resolve it against :func:`default_system_config` before any
    digest is computed, so the same physical configuration always hashes
    identically regardless of which keys the caller spelled out.
    """
    data = default_system_config().to_dict()
    _deep_merge(data, dict(partial or {}))
    return SystemConfig.from_dict(data)
