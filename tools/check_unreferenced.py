#!/usr/bin/env python3
"""Dead-API lint: every public name defined in ``src/repro`` must be used.

Parses each module under ``src/repro`` with :mod:`ast` and collects its
public definitions: module-level functions and classes, and the methods,
properties and nested classes of every class (names without a leading
underscore).  A definition passes when its name occurs as an identifier
anywhere in the scanned tree *outside its own definition* — a call, an
attribute access, an import, a string literal (a profiler names the
functions it wraps by string), a mention in a ``.md`` document.  Some
mentions only describe or list a name and do not count: a docstring or
a comment in a ``.py`` file, an entry of an ``__all__`` list, and a
``from ... import`` in a ``src/repro`` package ``__init__.py`` (a
re-export).  A name that occurs nowhere else is API that no code path,
test, benchmark, example or document reaches, and fails the lint.

The scan covers the ``*.py`` and ``*.md`` files of ``src/ tests/
benchmarks/ perfbench/ tools/ examples/ docs/`` and ``README.md``.  This
tool, whose own identifiers are no uses of ``repro`` names, is left out,
and so are the planning documents (``ROADMAP.md``, ``CHANGES.md``).
The tool uses only the standard library and never imports ``repro``.

Usage::

    python tools/check_unreferenced.py

Exit status is 1 when any definition is unreferenced, else 0.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path
from typing import NamedTuple

SELF = Path(__file__).resolve()
REPO = SELF.parents[1]

SCAN_DIRS = ("src", "tests", "benchmarks", "perfbench", "tools", "examples", "docs")
SCAN_FILES = ("README.md",)
SCAN_SUFFIXES = {".py", ".md"}

_IDENT = re.compile(r"[A-Za-z_]\w*")
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Definition(NamedTuple):
    qualname: str
    name: str
    path: Path
    first_line: int
    last_line: int


def definitions(path: Path) -> list[Definition]:
    """Public module-level functions/classes and public class members."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[Definition] = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if not isinstance(node, _DEF_NODES) or node.name.startswith("_"):
                continue
            qualname = f"{prefix}{node.name}"
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            found.append(Definition(qualname, node.name, path, first, node.end_lineno or first))
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{qualname}.")

    visit(tree.body, "")
    return found


def scanned_files(root: Path) -> list[Path]:
    files = [root / name for name in SCAN_FILES if (root / name).is_file()]
    for directory in SCAN_DIRS:
        base = root / directory
        if base.is_dir():
            files.extend(
                path
                for path in sorted(base.rglob("*"))
                if path.is_file()
                and path.suffix in SCAN_SUFFIXES
                and "__pycache__" not in path.parts
                and path.resolve() != SELF
            )
    return files


def _listing_spans(tree: ast.Module, path: Path, package: Path) -> list[ast.AST]:
    """The statements of ``path`` whose names are listed or described, not used.

    Those are docstrings (any bare string statement), ``__all__``
    assignments, and ``from ... import`` re-exports in a package
    ``__init__.py`` under ``package``.
    """
    reexports = path.name == "__init__.py" and package in path.parents
    found: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr):
            listing = isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            listing = any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
        else:
            listing = reexports and isinstance(node, ast.ImportFrom)
        if listing:
            found.append(node)
    return found


def identifiers(path: Path, text: str, package: Path) -> dict[int, list[str]]:
    """The identifiers that count as uses in ``path``, by line number.

    A ``.md`` file counts every identifier.  A ``.py`` file counts those
    of its tokens outside comments and the spans of :func:`_listing_spans`.
    """
    found: dict[int, list[str]] = {}
    if path.suffix != ".py":
        for number, line in enumerate(text.splitlines(), 1):
            found[number] = _IDENT.findall(line)
        return found
    spans = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in _listing_spans(ast.parse(text, filename=str(path)), path, package)
    ]
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT or any(
            start <= token.start and token.end <= end for start, end in spans
        ):
            continue
        for offset, line in enumerate(token.string.splitlines()):
            found.setdefault(token.start[0] + offset, []).extend(_IDENT.findall(line))
    return found


def unreferenced(root: Path) -> list[Definition]:
    """Every public definition under ``root/src/repro`` used nowhere else."""
    package = root / "src" / "repro"
    used: dict[Path, dict[int, list[str]]] = {}
    counts: Counter[str] = Counter()
    for path in scanned_files(root):
        text = path.read_text(encoding="utf-8", errors="replace")
        used[path] = identifiers(path, text, package)
        for names in used[path].values():
            counts.update(names)
    dead: list[Definition] = []
    for path in sorted(package.rglob("*.py")):
        for definition in definitions(path):
            own = sum(
                used[path].get(number, []).count(definition.name)
                for number in range(definition.first_line, definition.last_line + 1)
            )
            if counts[definition.name] == own:
                dead.append(definition)
    return dead


def main() -> int:
    dead = unreferenced(REPO)
    for definition in dead:
        label = definition.path.relative_to(REPO)
        print(
            f"ERROR {label}:{definition.first_line}: {definition.qualname} "
            "is defined but never referenced",
            file=sys.stderr,
        )
    print(f"check_unreferenced: {len(dead)} unreferenced public definition(s)")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
