"""The dead-API linter passes on the shipped tree and catches dead members."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CHECKER = REPO / "tools" / "check_unreferenced.py"


def _checker():
    spec = importlib.util.spec_from_file_location("check_unreferenced", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, module: str, test: str) -> Path:
    """A minimal scan root: one ``src/repro`` module and one test using it."""
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "widgets.py").write_text(module, encoding="utf-8")
    (root / "tests").mkdir()
    (root / "tests" / "test_widgets.py").write_text(test, encoding="utf-8")
    return root


def _dead(root: Path) -> list[str]:
    return [definition.qualname for definition in _checker().unreferenced(root)]


def test_shipped_tree_has_no_unreferenced_definitions():
    completed = subprocess.run(
        [sys.executable, str(CHECKER)],
        env={"PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 unreferenced" in completed.stdout


def test_dead_public_method_is_caught(tmp_path):
    root = _tree(
        tmp_path,
        "class Widget:\n"
        "    def spin(self):\n"
        "        return 1\n\n"
        "    def never_called_helper(self):\n"
        '        """Only its own docstring says never_called_helper."""\n'
        "        return 2\n",
        "from repro.widgets import Widget\n\n\ndef test_spin():\n    assert Widget().spin()\n",
    )
    assert _dead(root) == ["Widget.never_called_helper"]


def test_docstring_and_comment_mentions_are_not_uses(tmp_path):
    root = _tree(
        tmp_path,
        "class Widget:\n"
        "    def spin(self):\n"
        "        return 1\n\n"
        "    def described(self):\n"
        "        return 2\n\n"
        "    def wrapped(self):\n"
        "        return 3\n\n"
        "    def documented(self):\n"
        "        return 4\n",
        '"""Widget.described is named in this docstring only."""\n\n'
        "from repro.widgets import Widget  # and described in a comment\n\n\n"
        "def test_spin():\n"
        '    """Not described() either."""\n'
        "    assert Widget().spin()\n"
        '    assert getattr(Widget(), "wrapped")()  # a string literal is a use\n',
    )
    (root / "docs").mkdir()
    (root / "docs" / "widgets.md").write_text("Call `Widget.documented()`.\n", encoding="utf-8")
    assert _dead(root) == ["Widget.described"]


def test_name_only_listed_in_all_and_reexported_is_caught(tmp_path):
    root = _tree(
        tmp_path,
        '__all__ = ["Widget", "listed_only"]\n\n\n'
        "class Widget:\n    pass\n\n\n"
        "def listed_only():\n    return 1\n",
        "from repro.widgets import Widget\n",
    )
    (root / "src" / "repro" / "__init__.py").write_text(
        'from repro.widgets import Widget, listed_only\n\n__all__ = ["Widget", "listed_only"]\n',
        encoding="utf-8",
    )
    assert _dead(root) == ["listed_only"]
