"""Design-space exploration campaigns for the dMT-CGRA reproduction.

The paper's evaluation is a design-space story — Table 2 picks one
configuration, Figure 5 motivates the 16-entry token buffer, and the
speedup/energy results are sensitive to buffer depth, grid size and
memory timing.  This package turns those hand-run sensitivity loops into
first-class *campaigns*: a declarative JSON spec is expanded into
(workload x variant x engine x seed x config) points, executed in
parallel worker processes, cached content-addressed on disk, and analysed
into Pareto frontiers and sensitivity tables.

Command line
------------
::

    python -m repro.explore run    spec.json [--jobs N] [--cache-dir DIR] [--quiet]
    python -m repro.explore status spec.json [--cache-dir DIR]
    python -m repro.explore report spec.json [--cache-dir DIR]

``run`` simulates every point of the campaign that is not already cached
(interrupted campaigns resume for free — completed points are appended to
``.explore-cache/points.jsonl`` as they finish), ``status`` shows how much
of a campaign is cached without simulating anything, and ``report``
renders the Pareto/sensitivity/best-config tables from cached records.

Spec format
-----------
::

    {
      "name": "token-buffer-sweep",
      "workloads": ["matrixMul", "convolution", "reduce"],
      "variants": ["dmt"],
      "engines": ["auto"],
      "seeds": [0],
      "params": {"matrixMul": {"dim": 8}},
      "base_config": {"noc": {"hop_latency": 2}},
      "sweep": {
        "grid": {"token_buffer.entries": [4, 8, 16], "cores": [1, 2]},
        "zip":  {"grid.rows": [10, 12], "grid.cols": [14, 12]}
      }
    }

``sweep.grid`` axes are crossed (cartesian product), ``sweep.zip`` axes
advance in lockstep; both address :class:`~repro.config.system.SystemConfig`
fields by dotted path.  Programmatic use mirrors the CLI::

    from repro.explore import CampaignSpec, run_campaign, render_campaign_report
    spec = CampaignSpec(name="sweep", workloads=("matrixMul",),
                        grid=(("token_buffer.entries", (8, 16)),))
    result = run_campaign(spec, jobs=4)
    print(render_campaign_report(spec, result.records()))
"""

from repro.explore.analysis import (
    best_per_workload,
    pareto_front,
    render_campaign_report,
    sensitivity_rows,
)
from repro.explore.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.explore.runner import (
    CampaignResult,
    PointOutcome,
    campaign_status,
    execute_point,
    run_campaign,
)
from repro.explore.spec import (
    CACHE_SCHEMA_VERSION,
    CampaignSpec,
    RunPoint,
    apply_override,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignResult",
    "CampaignSpec",
    "DEFAULT_CACHE_DIR",
    "PointOutcome",
    "ResultCache",
    "RunPoint",
    "apply_override",
    "best_per_workload",
    "campaign_status",
    "execute_point",
    "pareto_front",
    "render_campaign_report",
    "run_campaign",
    "sensitivity_rows",
]
