"""The runtime needs only the standard library and NumPy (pyproject.toml)."""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Imports ``repro`` and every ``repro.*`` module with a ``sys.meta_path``
#: finder that refuses any top-level package outside the standard library,
#: NumPy and ``repro`` itself, so an undeclared dependency fails even when
#: it happens to be installed.
_IMPORT_EVERYTHING = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


    class RuntimeOnly:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] not in ALLOWED:
                raise ModuleNotFoundError(f"non-runtime import: {name}", name=name)
            return None


    def fail(name):
        raise ImportError(f"cannot import {name}")


    sys.meta_path.insert(0, RuntimeOnly())
    import repro

    names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.", fail)]
    for name in names:
        importlib.import_module(name)
    print(len(names))
    """
)


def test_every_module_imports_with_only_stdlib_and_numpy():
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING],
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout) > 50  # the walk really reached the subpackages
