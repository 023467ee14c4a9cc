"""Campaign runner: cache hits, resume, worker error capture, parallelism."""

import json

import pytest

from repro.errors import ExplorationError
from repro.explore.cache import ResultCache
from repro.explore.runner import campaign_status, execute_point, run_campaign
from repro.explore.spec import CACHE_SCHEMA_VERSION, CampaignSpec


def _tiny_spec(**kwargs) -> CampaignSpec:
    defaults = dict(
        name="tiny",
        workloads=("matrixMul",),
        variants=("dmt",),
        params={"matrixMul": {"dim": 4}},
        grid=(("token_buffer.entries", (8, 16)),),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def test_second_run_of_identical_spec_is_all_hits(tmp_path):
    spec = _tiny_spec()
    cold = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    assert cold.misses == 2 and cold.hits == 0 and not cold.errors
    warm = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    assert warm.hits == 2 and warm.misses == 0
    # Byte-identical reconstruction of the spec hits too.
    again = CampaignSpec(
        name="tiny",
        workloads=("matrixMul",),
        variants=("dmt",),
        params={"matrixMul": {"dim": 4}},
        grid=(("token_buffer.entries", (8, 16)),),
    )
    assert run_campaign(again, jobs=1, cache_dir=tmp_path).hits == 2


def test_different_config_is_a_miss(tmp_path):
    run_campaign(_tiny_spec(), jobs=1, cache_dir=tmp_path)
    wider = _tiny_spec(grid=(("token_buffer.entries", (8, 32)),))
    result = run_campaign(wider, jobs=1, cache_dir=tmp_path)
    assert result.hits == 1  # entries=8 shared, entries=32 new
    assert result.misses == 1


def test_resume_after_kill_with_partial_jsonl(tmp_path):
    """Simulate a killed campaign: one complete record, one truncated line."""
    spec = _tiny_spec()
    full = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    keys = [outcome.key for outcome in full.outcomes]
    cache_file = ResultCache(tmp_path).path
    lines = cache_file.read_text().splitlines()
    assert len(lines) == 2
    # Keep the first record whole, truncate the second mid-JSON.
    cache_file.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
    status = campaign_status(spec, cache_dir=tmp_path)
    assert status == {"points": 2, "cached": 1, "missing": 1, "errors": 0}
    resumed = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    assert resumed.hits == 1 and resumed.misses == 1 and not resumed.errors
    assert {o.key for o in resumed.outcomes} == set(keys)
    assert campaign_status(spec, cache_dir=tmp_path)["missing"] == 0


def _mixed_spec() -> CampaignSpec:
    """One good point and one legal point that fails at build time: reduce
    needs ``n`` to be a multiple of ``window``, which only the graph
    builder checks, so the point raises WorkloadError inside the worker."""
    return CampaignSpec(
        name="mixed",
        workloads=("matrixMul", "reduce"),
        params={"matrixMul": {"dim": 4}, "reduce": {"n": 96, "window": 64}},
    )


def test_worker_error_is_captured_not_fatal(tmp_path):
    """A point that raises inside the pool yields an error record and the
    campaign still completes the remaining points."""
    spec = _mixed_spec()
    result = run_campaign(spec, jobs=2, cache_dir=tmp_path)
    assert result.total == 2
    by_workload = {o.point.workload: o for o in result.outcomes}
    assert by_workload["matrixMul"].ok
    failed = by_workload["reduce"]
    assert not failed.ok
    assert "WorkloadError" in failed.record["error"]
    assert failed.record["traceback"]
    # The failure is cached like any record: re-running is all hits.
    warm = run_campaign(spec, jobs=2, cache_dir=tmp_path)
    assert warm.hits == 2
    assert campaign_status(spec, cache_dir=tmp_path)["errors"] == 1


def test_rerun_errors_invalidates_cached_error_records(tmp_path):
    """``--rerun-errors`` re-simulates exactly the cached error points:
    the failing point is executed again (a fresh record replaces the
    cached one) while successful records stay cache hits."""
    spec = _mixed_spec()
    cold = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    assert len(cold.errors) == 1
    # A plain re-run serves the error from the cache and simulates nothing.
    warm = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    assert warm.hits == 2 and warm.misses == 0

    rerun = run_campaign(spec, jobs=1, cache_dir=tmp_path, rerun_errors=True)
    assert rerun.hits == 1 and rerun.misses == 1  # only the error point re-ran
    by_workload = {o.point.workload: o for o in rerun.outcomes}
    assert by_workload["matrixMul"].cached
    assert not by_workload["reduce"].cached  # re-simulated, not served from cache
    assert not by_workload["reduce"].ok  # still an error, now freshly produced

    # The fresh record was appended: a later load still sees one record per
    # key and the campaign remains fully cached without --rerun-errors.
    cached_again = run_campaign(spec, jobs=1, cache_dir=tmp_path)
    assert cached_again.hits == 2 and cached_again.misses == 0
    assert campaign_status(spec, cache_dir=tmp_path)["errors"] == 1


def test_rerun_errors_fixes_point_when_error_was_transient(tmp_path, monkeypatch):
    """If the underlying cause is gone (here: the cached record was an
    artifact), --rerun-errors replaces the error record with the fresh ok
    result and later runs hit the cache."""
    spec = _tiny_spec(grid=(("token_buffer.entries", (8,)),))
    (point,) = spec.expand()
    cache = ResultCache(tmp_path)
    cache.put(
        point.key(),
        {
            "point": {"workload": point.workload},
            "status": "error",
            "result": None,
            "error": "RuntimeError: transient infrastructure failure",
            "traceback": "",
            "duration_s": 0.0,
        },
    )
    assert campaign_status(spec, cache_dir=tmp_path)["errors"] == 1
    result = run_campaign(spec, jobs=1, cache_dir=tmp_path, rerun_errors=True)
    assert result.misses == 1 and not result.errors
    assert campaign_status(spec, cache_dir=tmp_path)["errors"] == 0
    assert run_campaign(spec, jobs=1, cache_dir=tmp_path).hits == 1


def test_parallel_matches_serial_records(tmp_path):
    spec = _tiny_spec(
        workloads=("matrixMul", "convolution"),
        params={"matrixMul": {"dim": 4}, "convolution": {"n": 32}},
    )
    serial = run_campaign(spec, jobs=1, cache_dir=tmp_path / "serial")
    parallel = run_campaign(spec, jobs=4, cache_dir=tmp_path / "parallel")
    assert serial.total == parallel.total == 4
    for left, right in zip(serial.outcomes, parallel.outcomes):
        assert left.key == right.key
        assert left.record["result"]["counters"] == right.record["result"]["counters"]


def test_execute_point_is_self_contained():
    spec = _tiny_spec(grid=(("token_buffer.entries", (8,)),))
    (point,) = spec.expand()
    payload = point.payload()
    # The payload must survive a JSON round-trip (a fortiori a pickle one).
    record = execute_point(json.loads(json.dumps(payload)))
    assert record["status"] == "ok"
    assert record["result"]["cycles"] > 0
    assert record["point"]["config_digest"]
    assert record["duration_s"] >= 0


def test_jobs_must_be_positive(tmp_path):
    with pytest.raises(ExplorationError):
        run_campaign(_tiny_spec(), jobs=0, cache_dir=tmp_path)


def test_schema_version_bump_invalidates_cache(tmp_path, monkeypatch):
    spec = _tiny_spec()
    run_campaign(spec, jobs=1, cache_dir=tmp_path)
    monkeypatch.setattr("repro.explore.spec.CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
    assert campaign_status(spec, cache_dir=tmp_path)["cached"] == 0
