"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at its shortest length (``--seconds 1``: one pass),
untraced and traced, and checks that
each run prints every ``end_to_end`` (resp. ``per_layer``) metric of
``BENCHMARK.json`` with its unit, that no op failed, and that the
simulated statistics repeat exactly between the two runs.  Exits
non-zero on the first violation.  Takes a few minutes: ``engine_4k``
compiles its eight 4096-thread kernels in each of its set-ups.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--seconds",
        "1",
        "--trace",
        str(trace),
    ]
    output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if output.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace}: exit {output.returncode}\n{output.stderr}")
    detail_line, result_line = output.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        workload = entry["name"]
        digests = set()
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            detail, result = run(workload, trace)
            expected = {metric["name"]: metric["unit"] for metric in names}
            produced = {name: value["unit"] for name, value in result["metrics"].items()}
            assert produced == expected, f"{workload} --trace {trace}: metrics {produced}"
            values = [value["value"] for value in result["metrics"].values()]
            assert all(math.isfinite(v) for v in values), f"{workload}: non-finite metric"
            assert result["correct"] and result["failed"] == 0, f"{workload}: failed ops"
            assert result["attempted"] >= 1
            assert detail["metrics"]["failed_share"] == {"value": 0.0, "unit": "ratio"}
            digests.add(detail["determinism_digest"])
            print(f"ok {workload} --trace {trace}: {len(produced)} metrics, "
                  f"{result['attempted']} ops, digest {detail['determinism_digest']}")
        assert len(digests) == 1, f"{workload}: simulated statistics differ between runs"
    return 0


if __name__ == "__main__":
    sys.exit(main())
