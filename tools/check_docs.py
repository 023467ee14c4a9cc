#!/usr/bin/env python3
"""Docs lint: every ``repro.*`` symbol in docs code must import.

Scans the fenced code blocks and the inline code spans of ``README.md``
and ``docs/*.md`` for

* ``import repro...`` / ``from repro... import name, ...`` statements,
* dotted references such as ``repro.sim.simulate`` or
  ``python -m repro.serve``,

and verifies each one resolves: modules import cleanly and attribute
chains exist on the imported module.  Each fenced ``python`` block is
also parsed with :mod:`ast`: every keyword of a call to a callable
imported from ``repro`` must be a parameter of its signature, unless the
callable takes ``**kwargs``.  Documentation that names a symbol or a
keyword which has been renamed or removed fails CI instead of silently
rotting.

Usage::

    PYTHONPATH=src python tools/check_docs.py [files...]

With no arguments it checks ``README.md`` and every ``docs/*.md`` under
the repository root.  Exit status is 1 when any reference is broken, else 0.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_FENCE = re.compile(r"^```")
_PYTHON_FENCE = re.compile(r"^```(?:python|py)\s*$")
_IMPORT = re.compile(r"^\s*import\s+(repro[\w.]*)")
_FROM_IMPORT = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+([\w ,]+)")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_INLINE = re.compile(r"`([^`\n]+)`")


def code_blocks(text: str) -> list[str]:
    """Return the contents of every fenced code block in ``text``."""
    blocks: list[str] = []
    current: list[str] | None = None
    for line in text.splitlines():
        if _FENCE.match(line):
            if current is None:
                current = []
            else:
                blocks.append("\n".join(current))
                current = None
            continue
        if current is not None:
            current.append(line)
    return blocks


def python_blocks(text: str) -> list[str]:
    """Return the contents of every fenced code block tagged ``python``."""
    blocks: list[str] = []
    current: list[str] | None = None
    fenced = False
    for line in text.splitlines():
        if _FENCE.match(line):
            if fenced and current is not None:
                blocks.append("\n".join(current))
            current = [] if not fenced and _PYTHON_FENCE.match(line) else None
            fenced = not fenced
        elif current is not None:
            current.append(line)
    return blocks


def inline_spans(text: str) -> list[str]:
    """Return the contents of every inline code span outside fenced blocks."""
    spans: list[str] = []
    fenced = False
    for line in text.splitlines():
        if _FENCE.match(line):
            fenced = not fenced
        elif not fenced:
            spans.extend(_INLINE.findall(line))
    return spans


def references(block: str) -> set[str]:
    """Extract every checkable ``repro...`` reference from one code block."""
    refs: set[str] = set()
    for line in block.splitlines():
        match = _IMPORT.match(line)
        if match:
            refs.add(match.group(1))
            continue
        match = _FROM_IMPORT.match(line)
        if match:
            module = match.group(1)
            for name in match.group(2).split(","):
                name = name.strip()
                if name:
                    refs.add(f"{module}.{name}")
            continue
        refs.update(_DOTTED.findall(line))
    return refs


def resolve(reference: str) -> str | None:
    """Return an error string if ``reference`` does not resolve, else None."""
    return lookup(reference)[1]


def lookup(reference: str) -> tuple[object, str | None]:
    """The object ``reference`` names, or ``(None, error string)``."""
    parts = reference.split(".")
    module = None
    module_name = ""
    # Longest importable prefix wins; the rest must be an attribute chain.
    for split in range(len(parts), 0, -1):
        candidate = ".".join(parts[:split])
        try:
            module = importlib.import_module(candidate)
            module_name = candidate
            break
        except ImportError:
            continue
        except Exception as exc:  # noqa: BLE001 - import-time crash is a finding
            return None, f"importing '{candidate}' raised {type(exc).__name__}: {exc}"
    if module is None:
        return None, f"no importable prefix of '{reference}'"
    obj = module
    for attr in parts[len(module_name.split(".")):]:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return None, f"'{module_name}' has no attribute path '{reference}'"
    return obj, None


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for any other expression."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else [*base, node.attr]
    return None


def keyword_problems(block: str) -> list[str]:
    """Call keywords in one Python block that the called ``repro`` callable lacks."""
    try:
        tree = ast.parse(block)
    except SyntaxError as exc:
        return [f"python block does not parse: {exc}"]
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.name if alias.asname else name
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        chain = _dotted(node.func)
        if chain is None or chain[0] not in bound:
            continue
        reference = ".".join([bound[chain[0]], *chain[1:]])
        target, error = lookup(reference)
        if error is not None:
            continue  # reported as a broken reference
        try:
            parameters = inspect.signature(target).parameters
        except (TypeError, ValueError):
            continue
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            continue
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg not in parameters:
                problems.append(f"{reference}: no parameter '{keyword.arg}'")
    return problems


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    refs: set[str] = set()
    for block in code_blocks(text) + inline_spans(text):
        refs |= references(block)
    label = path.relative_to(REPO) if path.is_relative_to(REPO) else path
    for reference in sorted(refs):
        problem = resolve(reference)
        if problem is not None:
            errors.append(f"{label}: {reference}: {problem}")
    for block in python_blocks(text):
        errors.extend(f"{label}: {problem}" for problem in keyword_problems(block))
    return errors


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        paths = [Path(arg).resolve() for arg in argv]
    else:
        paths = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    paths = [path for path in paths if path.exists()]
    if not paths:
        print("check_docs: no documentation files found", file=sys.stderr)
        return 1
    errors: list[str] = []
    checked = 0
    for path in paths:
        file_errors = check_file(path)
        errors.extend(file_errors)
        checked += 1
    for error in errors:
        print(f"ERROR {error}", file=sys.stderr)
    print(f"check_docs: {checked} file(s), {len(errors)} broken repro.* reference(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
