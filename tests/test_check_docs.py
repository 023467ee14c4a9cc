"""The docs linter passes on the shipped docs and catches broken references."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CHECKER = REPO / "tools" / "check_docs.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *args],
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_shipped_docs_reference_only_real_symbols():
    completed = _run()
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 broken" in completed.stdout


def test_broken_reference_is_caught(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text(
        "# Bad\n\n```python\nfrom repro.sim import simulate_faster_please\n```\n",
        encoding="utf-8",
    )
    completed = _run(str(doc))
    assert completed.returncode == 1
    assert "simulate_faster_please" in completed.stderr


def test_stale_call_keyword_is_caught(tmp_path):
    doc = tmp_path / "stale.md"
    doc.write_text(
        "```python\n"
        "import repro.sim as sim\n"
        "from repro import simulate\n"
        "result = simulate(compiled, launch, engine='auto', block=None)\n"
        "sim.simulate(compiled, launch, cores=2)\n"
        "```\n",
        encoding="utf-8",
    )
    completed = _run(str(doc))
    assert completed.returncode == 1
    assert "repro.simulate: no parameter 'block'" in completed.stderr
    assert "engine" not in completed.stderr
    assert "cores" not in completed.stderr


def test_dotted_reference_in_shell_block_is_checked(tmp_path):
    doc = tmp_path / "cli.md"
    doc.write_text(
        "```sh\npython -m repro.serve_nothing --port 1\n```\n", encoding="utf-8"
    )
    completed = _run(str(doc))
    assert completed.returncode == 1
    assert "repro.serve_nothing" in completed.stderr


def test_inline_code_span_is_checked(tmp_path):
    doc = tmp_path / "prose.md"
    doc.write_text(
        "Run with `repro.sim.build_simulator` or `repro.sim.simulate`.\n", encoding="utf-8"
    )
    completed = _run(str(doc))
    assert completed.returncode == 1
    assert "repro.sim.build_simulator" in completed.stderr
    assert "repro.sim.simulate:" not in completed.stderr
