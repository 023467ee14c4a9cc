"""The three benchmark workloads.

Each workload is a closed loop: the next op is issued only after the
previous one completed (one client for ``paper_suite`` and ``engine_4k``,
two client threads for ``serve_campaign``).  A workload runs in *passes*:
every pass issues the same mix of ops.  Inputs derive from the ``--seed``
argument only.

The modelled caches start empty on every op: each simulate call builds a
fresh memory hierarchy, and no op is warmed up by an earlier one.

Every workload calls :meth:`Workload.checkpoint` between ops, where no op
is running (``paper_suite`` also between the calls of one op,
``engine_4k`` also between the compiles of its set-up); an untraced run
times the host's speed there (``hostspeed.py``), and leaves the
checkpoints out of the op latencies and set-up times.

Simulated statistics (``memory.*``, ``arch.*``, ``model.*``) and the
determinism digest come from the first pass only, whose ops are fixed by
the seed, so they repeat exactly across runs and commits.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from hostspeed import HostClock
from spans import OP_SPAN, SpanLog

import repro.harness.experiments as experiments
import repro.sim as sim

#: Simulated counters that define the model's output.  A pure speed-up
#: must leave every one of them identical.
SIMULATED_COUNTERS = (
    "cycles",
    "l1_read_hits",
    "l1_read_misses",
    "l1_write_hits",
    "l1_write_misses",
    "l2_read_hits",
    "l2_read_misses",
    "l2_write_hits",
    "l2_write_misses",
    "dram_reads",
    "dram_writes",
    "l1_mshr_merges",
    "l2_mshr_merges",
    "l1_bank_conflict_cycles",
    "l2_bank_conflict_cycles",
    "tokens_sent",
    "noc_hops",
    "elevator_retags",
    "eldst_forwards",
    "spilled_tokens",
    "barrier_wait_cycles",
)

#: The paper's headline ratios (Fig. 11 speedup, Fig. 12 energy efficiency
#: of dMT-CGRA over the Fermi SM, geometric means).
PAPER_SPEEDUP = 4.5
PAPER_EFFICIENCY = 7.4


@dataclass
class Op:
    """One timed request: what it was, how long it took, whether it failed."""

    kind: str
    latency: float
    #: ``perf_counter()`` when the op was issued.
    start: float = 0.0
    error: str | None = None
    #: Server-side ``elapsed_s`` of an HTTP op.
    server_s: float | None = None
    #: ``hit``/``miss``/``coalesced`` of a served simulate op.
    cache: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def timed(kind: str, fn: Callable[[], Any], log: SpanLog | None, op_id: int) -> tuple[Any, Op]:
    """Run one op, timing it; exceptions become a failed op."""
    if log is not None:
        log.current_op = op_id
    value, error = None, None
    start = perf_counter()
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - every op failure is counted, none raised
        error = f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    if log is not None:
        log.add(OP_SPAN, start, end, {"kind": kind})
        log.current_op = None
    return value, Op(kind, end - start, start, error)


@contextmanager
def _span(log: SpanLog | None, name: str):
    """A benchmark-side span around work the benchmark itself does."""
    start = perf_counter()
    try:
        yield
    finally:
        if log is not None:
            log.add(name, start, perf_counter())


def simulated_totals(rows: list[dict[str, Any]]) -> dict[str, float]:
    """``memory.*``/``arch.*``/``model.cycles`` summed over counter rows."""

    def total(*keys: str) -> int:
        return sum(int(row.get(key) or 0) for row in rows for key in keys)

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "memory.l1_hit_ratio": ratio(
            total("l1_read_hits", "l1_write_hits"), total("l1_read_misses", "l1_write_misses")
        ),
        "memory.l2_hit_ratio": ratio(
            total("l2_read_hits", "l2_write_hits"), total("l2_read_misses", "l2_write_misses")
        ),
        "memory.dram_accesses": total("dram_reads", "dram_writes"),
        "memory.mshr_merges": total("l1_mshr_merges", "l2_mshr_merges"),
        "memory.bank_conflict_cycles": total("l1_bank_conflict_cycles", "l2_bank_conflict_cycles"),
        "arch.tokens_sent": total("tokens_sent"),
        "arch.noc_hops": total("noc_hops"),
        "arch.elevator_retags": total("elevator_retags"),
        "arch.eldst_forwards": total("eldst_forwards"),
        "arch.spilled_tokens": total("spilled_tokens"),
        "arch.barrier_wait_cycles": total("barrier_wait_cycles"),
        "model.cycles": total("cycles"),
    }


def engine_calls(rows: list[dict[str, Any]]) -> dict[str, int]:
    """``sim.calls.<engine>`` from the engine/cores provenance of counter rows."""
    calls = {"event": 0, "batched": 0, "window_batched": 0, "multicore": 0}
    for row in rows:
        engine = str(row.get("engine", "")).replace("-", "_")
        if engine in calls:
            calls[engine] += 1
            if int(row.get("cores") or 1) > 1:
                calls["multicore"] += 1
    return {f"sim.calls.{name}": count for name, count in calls.items()}


class Workload:
    """Base class: set up once, then run whole passes of ops."""

    name = ""
    clients = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self._op_ids = itertools.count(1)
        #: Counter rows of the first pass, keyed by a stable op identity.
        self.first_rows: dict[str, dict[str, Any]] = {}
        self.diagnostics = 0
        #: Host-speed checkpoints; ``None`` (no checkpoints) in traced passes.
        self.clock: HostClock | None = None

    def checkpoint(self) -> None:
        """Called between ops, while none runs: time the host's speed."""
        if self.clock is not None:
            self.clock.checkpoint()

    def setup(self) -> None:
        """Everything that happens before the first timed op can be issued."""

    def run_pass(self, index: int, log: SpanLog | None) -> list[Op]:
        """Run pass ``index`` of the run (inputs derive from seed and index)."""
        raise NotImplementedError

    def simulated(self) -> dict[str, float]:
        """Deterministic simulated statistics of the first pass."""
        rows = [self.first_rows[key] for key in sorted(self.first_rows)]
        return {
            **simulated_totals(rows),
            **engine_calls(rows),
            "analyze.diagnostics": self.diagnostics,
            "gpgpu.instructions_issued": sum(
                int(row.get("instructions_issued") or 0)
                for row in rows
                if row.get("engine") == "fermi"
            ),
        }

    def determinism_digest(self) -> str:
        """SHA-256 prefix over every first-pass simulated counter and the gaps."""
        rows = {
            key: {name: row.get(name) for name in SIMULATED_COUNTERS}
            for key, row in self.first_rows.items()
        }
        blob = json.dumps({"rows": rows, "model": self.model_metrics()}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def model_metrics(self) -> dict[str, float]:
        """Workload-specific simulated metrics (the paper-accuracy gaps)."""
        return {}

    def describe(self) -> dict[str, Any]:
        """Workload-specific facts for the detail line."""
        return {}

    def close(self) -> None:
        """Stop everything :meth:`setup` started."""


class PaperSuite(Workload):
    """The Fig. 11/12 regeneration path: 9 paper workloads x fermi/mt/dmt.

    One op is one Fig. 11/12 row: the three cold ``run_workload`` calls
    (prepare, compile, analyze, simulate, energy, output check) of one
    workload on fermi, mt and dmt, each with its JSON record.  Single
    calls are not the op because their latencies fall in two clusters
    (light Fermi and small dMT calls; compile-heavy calls) with a gap at
    the median, so a per-call median swings between clusters from run to
    run.  A pass runs the 9 rows in a seeded order; each later pass draws
    fresh input data.
    """

    name = "paper_suite"

    def setup(self) -> None:
        from repro.harness.figures import BENCHMARK_SUITE_PARAMS
        from repro.workloads.base import ARCHITECTURES
        from repro.workloads.registry import paper_workloads

        self.params = BENCHMARK_SUITE_PARAMS
        self.architectures = ARCHITECTURES
        self.schedule = [workload.name for workload in paper_workloads()]

    def run_pass(self, index: int, log: SpanLog | None) -> list[Op]:
        order = list(self.schedule)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        input_seed = self.seed * 1000 + index
        ops = []
        for name in order:

            def row(name: str = name) -> dict[str, dict[str, Any]]:
                records = {}
                for arch in self.architectures:
                    if records:
                        # Normalise each call on its own; not part of the op.
                        self.checkpoint()
                    result = experiments.run_workload(
                        name, arch, params=self.params.get(name), seed=input_seed, check=True
                    )
                    records[arch] = result.to_record()
                    with _span(log, "harness.record"):
                        json.dumps(records[arch])
                return records

            self.checkpoint()
            records, timing = timed(name, row, log, next(self._op_ids))
            ops.append(timing)
            if index == 0 and records is not None:
                for arch, record in records.items():
                    self.first_rows[f"{name}/{arch}"] = {
                        **record["counters"],
                        "cycles": record["cycles"],
                        "energy_pj": record["energy_pj"],
                    }
                    self.diagnostics += len(record["diagnostics"])
        self.checkpoint()
        return ops

    def model_metrics(self) -> dict[str, float]:
        from repro.analysis.comparison import ArchitectureComparison, ComparisonTable

        table = ComparisonTable()
        for name in self.schedule:
            rows = {arch: self.first_rows.get(f"{name}/{arch}") for arch in ("fermi", "dmt")}
            if None in rows.values():
                return {"model.fig11_gap": math.nan, "model.fig12_gap": math.nan}
            table.add(
                ArchitectureComparison(
                    workload=name,
                    cycles={arch: row["cycles"] for arch, row in rows.items()},
                    energy_pj={arch: row["energy_pj"] for arch, row in rows.items()},
                )
            )
        return {
            "model.fig11_gap": abs(math.log(table.geomean_speedup("dmt") / PAPER_SPEEDUP)),
            "model.fig12_gap": abs(
                math.log(table.geomean_energy_efficiency("dmt") / PAPER_EFFICIENCY)
            ),
        }


#: The 4096-thread rows of ``benchmarks/bench_engine_speedup.py::CASES``:
#: (workload, variant, params, output array).
ENGINE_CASES = (
    ("matrixMul", "stream", {"dim": 64}, "c"),
    ("convolution", "stream", {"n": 4096}, "out"),
    ("reduce", "stream", {"n": 4096, "window": 32}, "partials"),
    ("hotspot", "stream", {"dim": 64}, "out"),
    ("spmv", "stream", {"rows": 512, "max_nnz": 8}, "partial"),
    ("matrixMul", "dmt", {"dim": 64}, "c"),
    ("matrixMul", "dmt_win", {"dim": 64}, "c"),
    ("lud", "dmt_win", {"dim": 64}, "updated"),
)


class Engine4k(Workload):
    """The batched engines at 4096 threads; compiles happen in set-up.

    One op is one ``simulate()`` call with ``engine="auto"``.  After each
    op (outside its latency) the outputs are checked against the
    workload's NumPy reference, and the op counters and output digest
    against the first repetition of the same kernel.  The engine ``auto``
    resolved to is reported, not checked: a dispatch change that keeps
    outputs and counters right is not a failure.
    """

    name = "engine_4k"

    def setup(self) -> None:
        from repro.analyze.manager import analyze_kernel
        from repro.compiler.pipeline import compile_kernel
        from repro.workloads.registry import get_workload

        self.cases = []
        for name, variant, params, output in ENGINE_CASES:
            # The set-up lasts seconds: normalise each compile on its own.
            self.checkpoint()
            prepared = get_workload(name).prepare(params, seed=self.seed)
            launch = prepared.launch(variant)
            compiled = compile_kernel(launch.graph)
            self.diagnostics += len(analyze_kernel(compiled).diagnostics)
            # Warm-up: a process's first simulate of a kernel is slower than
            # later ones, by an amount that varies from process to process.
            sim.simulate(compiled, launch)
            self.cases.append((f"{name}/{variant}", prepared, launch, compiled, output))
        #: (counters, outputs digest) of each kernel's first repetition.
        self.reference: dict[str, tuple[dict[str, Any], str]] = {}
        #: Engine ``auto`` resolved to, per kernel.
        self.engines: dict[str, str] = {}

    def run_pass(self, index: int, log: SpanLog | None) -> list[Op]:
        order = list(self.cases)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        ops = []
        for key, prepared, launch, compiled, output in order:
            self.checkpoint()
            result, timing = timed(
                key, lambda: sim.simulate(compiled, launch), log, next(self._op_ids)
            )
            ops.append(timing)
            if result is None:
                continue
            self.engines[key] = result.engine
            try:
                self._check(key, prepared, result, output, index)
            except Exception as exc:  # noqa: BLE001 - a wrong output is a failed op
                timing.error = f"{type(exc).__name__}: {exc}"
        self.checkpoint()
        return ops

    def describe(self) -> dict[str, Any]:
        return {"resolved_engines": dict(sorted(self.engines.items()))}

    def _check(self, key, prepared, result, output, index) -> None:
        array = result.array(output)
        prepared.check_outputs({output: array})
        counters = {k: v for k, v in result.counters().items() if k != "trace"}
        outputs = experiments.outputs_digest({output: array})
        first = self.reference.setdefault(key, (counters, outputs))
        if first != (counters, outputs):
            raise AssertionError(f"{key}: counters or outputs differ from the first repetition")
        if index == 0:
            self.first_rows[key] = counters


#: DSE key space: kernels (an event-only recurrence, a shardable windowed
#: reduction and window-batched dMT kernels) x token-buffer depth x cores.
SERVE_KERNELS = (
    ("scan", "dmt", {"n": 128}),
    ("reduce", "dmt", {"n": 256, "window": 32}),
    ("spmv", "dmt_win", {"rows": 32, "max_nnz": 4}),
    ("convolution", "dmt_win", {"n": 256}),
    ("hotspot", "dmt_win", {"dim": 8}),
    ("lud", "dmt_win", {"dim": 8}),
)
SERVE_ENTRIES = (8, 16, 32)
SERVE_CORES = (1, 2, 4)
#: Rounds per pass: over one pass every kernel meets every core count
#: once, so each pass costs the same whatever the seed.
SERVE_ROUNDS = len(SERVE_CORES)

# The request counts of the traffic mix.  No recorded DSE traffic exists
# to take them from, so the mix is synthetic; each count copies the one
# in-repo client of its endpoint.
#: Warm ``/v1/simulate`` requests per key after its cold one:
#: ``benchmarks/bench_serve_cache.py`` (``--repeats``, default 5).
SERVE_SIMULATE_REPEATS = 5
#: Runs of each ``/v1/explore`` campaign: cold, then one identical re-run,
#: as ``benchmarks/bench_explore_cache.py`` runs its campaign.
SERVE_EXPLORE_RUNS = 2
#: ``/v1/compile`` requests per config: cold, then one warm, as
#: ``tests/serve/test_server.py::test_compile_endpoint_memoises_in_the_kernel_lru``.
SERVE_COMPILE_RUNS = 2
#: Characterization tables per client and round, read once the round's
#: records exist, as
#: ``tests/serve/test_server.py::test_characterization_table_aggregates_cached_records``.
SERVE_CHARACTERIZATIONS = 1


class ServeCampaign(Workload):
    """DSE traffic from two clients against ``LocalServer(workers=0)``.

    The server starts on an empty record store.  A pass is
    ``SERVE_ROUNDS`` rounds.  Every round draws a fresh request seed, so
    its six simulate keys (one per kernel; the core count rotates per
    round, the token-buffer depth per round and pass) start as misses.
    Per round and client, in order:

    1. cold phase: the client's three own keys (client 1 first repeats
       client 0's first key concurrently, exercising single-flight), one
       two-point explore campaign overlapping an own key, one compile of
       a config no earlier round compiled;
    2. warm phase (after both clients finished phase 1), in a seeded
       order: its half of the ``SERVE_SIMULATE_REPEATS`` warm requests of
       every round key, the explore campaign and the compile again; then
       one characterization table, which scans the whole store.
    """

    name = "serve_campaign"
    clients = 2

    def setup(self) -> None:
        from repro.serve.client import LocalServer

        self.store_dir = self.workdir / f"serve-store-{os.getpid()}"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.server = LocalServer(self.store_dir, workers=0).start()
        self.pool = ThreadPoolExecutor(max_workers=self.clients, thread_name_prefix="client")
        self.lock = threading.Lock()
        #: outputs digest of the first record served for every key.
        self.outputs: dict[str, str] = {}
        #: kernel digest per workload name, for characterization requests.
        self.kernel_digests: dict[str, str] = {}

    def close(self) -> None:
        # Also called after a failed set-up: stop whatever did start.
        if hasattr(self, "pool"):
            self.pool.shutdown(wait=True)
        if hasattr(self, "server"):
            self.server.stop()
        if hasattr(self, "store_dir"):
            shutil.rmtree(self.store_dir, ignore_errors=True)

    # ----------------------------------------------------------------- plan
    def _body(self, kernel: int, entries: int, cores: int, seed: int) -> dict[str, Any]:
        workload, variant, params = SERVE_KERNELS[kernel]
        return {
            "workload": workload,
            "variant": variant,
            "params": params,
            "seed": seed,
            "overrides": {"token_buffer.entries": entries, "cores": cores},
        }

    def _plan(self, index: int, round_: int) -> list[list[list[tuple[str, Any, Any]]]]:
        """Both clients' requests of one round, as [cold phase, warm phase]."""
        number = index * SERVE_ROUNDS + round_
        rng = random.Random(f"{self.seed}:{number}")
        seed = self.seed * 1000 + number
        combos = [
            (
                SERVE_ENTRIES[(k + round_ + index) % len(SERVE_ENTRIES)],
                SERVE_CORES[(k + round_) % len(SERVE_CORES)],
            )
            for k in range(len(SERVE_KERNELS))
        ]
        bodies = [self._body(k, *combos[k], seed) for k in range(len(SERVE_KERNELS))]
        kernels = rng.sample(range(len(SERVE_KERNELS)), len(SERVE_KERNELS))
        warm = [("simulate", "/v1/simulate", body) for body in bodies] * SERVE_SIMULATE_REPEATS
        rng.shuffle(warm)
        plans = []
        for client in range(self.clients):
            own = kernels[client :: self.clients]
            misses = [("simulate", "/v1/simulate", bodies[k]) for k in own]
            if client > 0:
                misses.insert(0, ("simulate", "/v1/simulate", bodies[kernels[0]]))
            workload, variant, params = SERVE_KERNELS[own[0]]
            entries, cores = combos[own[0]]
            other = SERVE_ENTRIES[(SERVE_ENTRIES.index(entries) + 1) % len(SERVE_ENTRIES)]
            explore = {
                "name": f"round{number}-client{client}",
                "workloads": [workload],
                "variants": [variant],
                "params": {workload: params},
                "seeds": [seed],
                "sweep": {"grid": {"token_buffer.entries": [entries, other], "cores": [cores]}},
            }
            # A token-buffer depth no earlier round used: the first compile
            # request is a kernel-LRU miss in every round, the repeat a hit.
            workload, variant, params = SERVE_KERNELS[own[1]]
            compile_body = {
                "workload": workload,
                "variant": variant,
                "params": params,
                "config": {"token_buffer": {"entries": max(SERVE_ENTRIES) + 1 + number}},
            }
            repeats = (
                warm[client :: self.clients]
                + [("explore", "/v1/explore", explore)] * (SERVE_EXPLORE_RUNS - 1)
                + [("compile", "/v1/compile", compile_body)] * (SERVE_COMPILE_RUNS - 1)
            )
            rng.shuffle(repeats)
            phase_one = misses + [
                ("explore", "/v1/explore", explore),
                ("compile", "/v1/compile", compile_body),
            ]
            characterization = ("characterization", SERVE_KERNELS[own[-1]][0], None)
            phase_two = repeats + [characterization] * SERVE_CHARACTERIZATIONS
            plans.append([phase_one, phase_two])
        return plans

    # ------------------------------------------------------------------ run
    def _request(self, kind: str, path: Any, body: Any) -> tuple[Any, float | None, str | None]:
        if kind == "characterization":
            path = f"/v1/kernels/{self.kernel_digests[path]}/characterization"
            status, payload = self.server.request("GET", path)
        else:
            status, payload = self.server.request("POST", path, body)
        if status != 200:
            raise RuntimeError(f"{kind}: HTTP {status}: {payload.get('error')}")
        self._check(kind, body, payload)
        return payload, payload.get("server", {}).get("elapsed_s"), payload.get("cache")

    def _check(self, kind: str, body: Any, payload: dict[str, Any]) -> None:
        if kind == "simulate":
            if payload.get("status") != "ok":
                raise RuntimeError(f"simulate: error record {payload['record'].get('error')}")
            produced = payload["record"]["result"]["outputs_digest"]
            with self.lock:
                first = self.outputs.setdefault(payload["key"], produced)
                self.kernel_digests.setdefault(body["workload"], payload["kernel_digest"])
            if produced != first:
                raise AssertionError(f"simulate {payload['key'][:12]}: outputs digest changed")
        elif kind == "explore":
            if payload.get("errors") or payload.get("points") != 2:
                raise RuntimeError(f"explore: {payload.get('errors')} error point(s)")
        elif kind == "compile":
            if "kernel" not in payload:
                raise RuntimeError("compile: no kernel summary in the response")
        else:
            for row in payload.get("rows", []):
                with self.lock:
                    first = self.outputs.get(row["key"])
                if first is not None and row["outputs_digest"] != first:
                    raise AssertionError(f"characterization {row['key'][:12]}: digest changed")

    def _client(
        self, phases: list, barrier: threading.Barrier, log: SpanLog | None
    ) -> list[Op]:
        ops = []
        for phase in phases:
            for kind, path, body in phase:
                value, timing = timed(
                    kind, lambda: self._request(kind, path, body), log, next(self._op_ids)
                )
                if value is not None:
                    _, timing.server_s, timing.cache = value
                ops.append(timing)
            barrier.wait(timeout=170)
        return ops

    def run_pass(self, index: int, log: SpanLog | None) -> list[Op]:
        ops = []
        for round_ in range(SERVE_ROUNDS):
            self.checkpoint()
            # The last client to finish a phase takes a checkpoint before
            # any client starts its next phase.
            barrier = threading.Barrier(self.clients, action=self.checkpoint)
            futures = [
                self.pool.submit(self._client, phases, barrier, log)
                for phases in self._plan(index, round_)
            ]
            ops.extend(op for future in futures for op in future.result())
        if index == 0:
            for key, record in self.server.service.store.items():
                result = record.get("result") or {}
                self.first_rows[key] = {**result.get("counters", {}), "cycles": result.get("cycles")}
                self.diagnostics += len(result.get("diagnostics", []))
        return ops

    def server_stats(self) -> dict[str, float]:
        status, stats = self.server.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats: HTTP {status}")
        lru = stats["kernel_lru"]
        store = self.server.service.store
        return {
            "serve.hit_ratio": stats["cache"]["hit_ratio"],
            "serve.coalesced": stats["cache"]["coalesced"],
            "serve.simulations": stats["simulations"],
            "serve.compiles": stats["compiles"],
            "serve.kernel_lru_hit_ratio": lru["hits"] / max(1, lru["hits"] + lru["misses"]),
            "explore.store_records": len(store),
            "explore.store_bytes": store.path.stat().st_size if store.path.exists() else 0,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperSuite, Engine4k, ServeCampaign)
}
