"""``python -m repro.explore`` run, status and report, in process."""

import json

import pytest

from repro.explore.__main__ import main

pytestmark = pytest.mark.usefixtures("repro_logging_restored")

SPEC = {
    "name": "cli",
    "workloads": ["matrixMul"],
    "variants": ["dmt"],
    "params": {"matrixMul": {"dim": 4}},
    "sweep": {"grid": {"token_buffer.entries": [8, 16]}},
}


def test_run_status_and_report_a_campaign(tmp_path, capsys):
    spec = tmp_path / "campaign.json"
    spec.write_text(json.dumps(SPEC))
    common = [str(spec), "--cache-dir", str(tmp_path / "cache")]

    assert main(["status", *common]) == 0
    assert "2 points, 0 cached (0 errors), 2 missing" in capsys.readouterr().out

    assert main(["run", *common, "--quiet"]) == 0
    assert "campaign 'cli': 2 points, 0 cached, 2 simulated, 0 errors" in capsys.readouterr().out

    assert main(["status", *common]) == 0
    assert "2 points, 2 cached (0 errors), 0 missing" in capsys.readouterr().out

    assert main(["report", *common]) == 0
    captured = capsys.readouterr()
    assert "Campaign 'cli': 2 points (2 ok, 0 errors)" in captured.out
    assert "Pareto frontier" in captured.out
    assert captured.err == ""


def test_a_missing_spec_exits_2(tmp_path, capsys):
    assert main(["status", str(tmp_path / "absent.json")]) == 2
    assert "campaign spec not found" in capsys.readouterr().err
