"""Work budget of the structure checks: one per graph that changed.

A kernel's structure is checked by ``KernelBuilder.finish`` and again on
``compile_kernel``'s input copy, then once after each pass that changed
the structure (nodes, edges or node params).  A pass that only writes
graph metadata, as the replicate pass does, reports no change and
triggers no check.  At ``DEFAULT_SUITE_PARAMS`` no pass changes
matrixMul's ``mt`` or ``dmt`` graph, so one ``run_workload`` of either
runs ``structure_diagnostics`` exactly twice.
"""

from __future__ import annotations

import sys

import pytest

from repro.analyze.structure import structure_diagnostics
from repro.harness.experiments import run_workload
from repro.harness.figures import DEFAULT_SUITE_PARAMS


@pytest.mark.parametrize("variant", ["mt", "dmt"])
def test_one_run_checks_an_unchanged_structure_twice(monkeypatch, variant):
    checked: list[str] = []

    def counting(graph):
        checked.append(graph.name)
        return structure_diagnostics(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get("structure_diagnostics") is (
            structure_diagnostics
        ):
            monkeypatch.setattr(module, "structure_diagnostics", counting)
    run_workload("matrixMul", variant, DEFAULT_SUITE_PARAMS["matrixMul"])

    assert len(checked) == 2, checked
