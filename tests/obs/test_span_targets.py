"""Every function the traced benchmark wraps still exists under its path.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of its
``_targets()`` table with a span-recording wrapper; a renamed or moved
function would only surface as a crash of ``perfbench/run.py --trace 1``.
This check fails the fast lane instead.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve annotations through ``sys.modules``.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists(monkeypatch):
    targets = _spans(monkeypatch)._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"perfbench/spans.py wraps names that no longer exist: {missing}"
