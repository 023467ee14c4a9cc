"""Simulation-as-a-service: a digest-keyed compile/simulate server.

The paper's evaluation pipeline — compile a dMT kernel once, simulate it
under many configurations — is pure with respect to its request
identity: the same (workload, variant, params, engine, seed, config)
always produces the same counters, energy and outputs.  ``repro.serve``
exploits that purity to serve repeat traffic at O(lookup) cost instead
of O(recompile + resimulate):

* **Canonicalization** (:mod:`repro.serve.canonicalize`) folds request
  bodies into the same SHA-256 digests :mod:`repro.explore` caches by,
  so server, campaign runner and offline tools share one key space.
* **Memoisation** (:mod:`repro.serve.cache`,
  :class:`~repro.explore.cache.ResultCache`): an in-process LRU of
  compile responses (kernel summary, analysis, report) answers repeat
  compiles; the explore subsystem's persistent JSONL store
  answers repeat simulations — and single-flight deduplication collapses
  N concurrent identical requests into one worker-pool simulation.
* **Characterization tables** aggregate a kernel's cached records into
  latency/energy-per-config lookup rows
  (``GET /v1/kernels/<digest>/characterization``).
* **Transport** (:mod:`repro.serve.app`): a stdlib-only asyncio HTTP/1.1
  server; simulations run on a worker pool so the event loop never
  blocks on a long event-engine run.

Start one with::

    python -m repro.serve --port 8787

and talk JSON to it::

    curl -s localhost:8787/healthz
    curl -s -XPOST localhost:8787/v1/simulate \\
         -d '{"workload": "matrixMul", "variant": "dmt"}'

See ``docs/api.md`` for the endpoint reference and
``docs/architecture.md`` for where this layer sits in the pipeline.
"""

from repro.serve.app import ReproServer
from repro.serve.cache import KernelLRU, SingleFlight
from repro.serve.canonicalize import (
    CanonicalRequest,
    ServeError,
    canonicalize_compile,
    canonicalize_simulate,
    kernel_digest,
)
from repro.serve.client import LocalServer, request_json
from repro.serve.handlers import SimulationService

__all__ = [
    "CanonicalRequest",
    "KernelLRU",
    "LocalServer",
    "ReproServer",
    "ServeError",
    "SimulationService",
    "SingleFlight",
    "canonicalize_compile",
    "canonicalize_simulate",
    "kernel_digest",
    "request_json",
]
