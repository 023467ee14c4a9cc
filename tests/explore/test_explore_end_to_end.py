"""End-to-end campaign on matrixMul: records match direct runs bit-for-bit."""

import json

from repro.config.system import SystemConfig
from repro.explore.analysis import (
    best_per_workload,
    pareto_front,
    render_campaign_report,
    sensitivity_rows,
)
from repro.explore.runner import run_campaign
from repro.explore.spec import CampaignSpec
from repro.harness.experiments import run_workload


def test_two_point_campaign_matches_direct_run_workload(tmp_path):
    spec = CampaignSpec(
        name="e2e",
        workloads=("matrixMul",),
        variants=("dmt", "mt"),
        seeds=(3,),
        params={"matrixMul": {"dim": 4}},
        grid=(("token_buffer.entries", (8, 16)),),
    )
    result = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    assert result.total == 4 and not result.errors

    for outcome in result.outcomes:
        record = outcome.record["result"]
        direct = run_workload(
            "matrixMul",
            outcome.point.variant,
            params={"dim": 4},
            seed=3,
            config=outcome.point.config(),
            engine="auto",
        )
        # Bit-for-bit: every counter the direct run reports, with the same
        # value, after a JSON round-trip of the campaign record.
        round_tripped = json.loads(json.dumps(record))
        assert round_tripped["counters"] == dict(direct.counters)
        assert round_tripped["cycles"] == direct.cycles
        assert round_tripped["energy_pj"] == direct.energy.total_pj
        assert round_tripped["params"] == direct.params
        assert record["params"]["seed"] == 3

    # Provenance satellite: cached rows record the *resolved* engine
    # (never "auto") and the core count.  matrixMul dmt is feed-forward
    # communicating and mt's scratch levels are barrier-separated, so
    # auto dispatch resolves both to the window-batched engine.
    for outcome in result.outcomes:
        counters = outcome.record["result"]["counters"]
        assert counters["engine"] == "window-batched"
        assert counters["cores"] == 1


def test_campaign_report_renders_all_sections(tmp_path):
    spec = CampaignSpec(
        name="report",
        workloads=("matrixMul",),
        variants=("stream",),
        params={"matrixMul": {"dim": 4}},
        grid=(("token_buffer.entries", (8, 16)), ("cores", (1, 2))),
    )
    result = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    records = result.records()
    report = render_campaign_report(spec, records)
    assert "Pareto frontier" in report
    assert "Sensitivity to token_buffer.entries" in report
    assert "Sensitivity to cores" in report
    assert "Best configuration per workload" in report
    assert "matrixMul" in report

    front = pareto_front(records)
    assert front, "at least one point must be non-dominated"
    cycles = [r["result"]["cycles"] for r in front]
    energies = [r["result"]["energy_pj"] for r in front]
    assert cycles == sorted(cycles)
    assert energies == sorted(energies, reverse=True)

    rows = sensitivity_rows(records, "cores")
    assert [value for value, *_ in rows] == [1, 2]
    assert all(count == 2 for _, count, *_ in rows)

    best = best_per_workload(records)
    assert set(best) == {"matrixMul"}
    assert best["matrixMul"]["result"]["cycles"] == min(r["result"]["cycles"] for r in records)


def test_pareto_front_keeps_co_equal_configs():
    def rec(name: str, cycles: int, energy: float) -> dict:
        return {
            "status": "ok",
            "point": {"workload": "w", "variant": "dmt", "overrides": {"x": name}},
            "result": {"cycles": cycles, "energy_pj": energy, "counters": {}},
        }

    records = [
        rec("a", 100, 5.0),
        rec("b", 100, 5.0),  # co-equal with a: both non-dominated
        rec("c", 100, 6.0),  # dominated by a (same cycles, more energy)
        rec("d", 120, 3.0),  # on the frontier
        rec("e", 130, 3.0),  # dominated by d (same energy, more cycles)
    ]
    front = pareto_front(records)
    assert [r["point"]["overrides"]["x"] for r in front] == ["a", "b", "d"]


def test_multicore_point_records_core_provenance(tmp_path):
    spec = CampaignSpec(
        name="cores",
        workloads=("matrixMul",),
        variants=("stream",),
        params={"matrixMul": {"dim": 8}},
        grid=(("cores", (2,)),),
    )
    (outcome,) = run_campaign(spec, jobs=1, cache_dir=tmp_path).outcomes
    counters = outcome.record["result"]["counters"]
    assert counters["cores"] == 2
    assert counters["sharded_cores"] == 2
    config = SystemConfig.from_dict(json.loads(json.dumps(outcome.point.config_dict())))
    assert config.cores == 2
