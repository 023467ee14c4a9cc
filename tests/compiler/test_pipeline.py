"""Tests for the end-to-end compilation pipeline."""

import sys

from repro.analyze import analyze_kernel, structure_diagnostics
from repro.arch.grid import PhysicalGrid
from repro.compiler.pipeline import compile_kernel, grid_layout
from repro.config.system import config_digest, default_system_config
from repro.workloads.matmul import MatmulWorkload
from repro.workloads.scan import ScanWorkload


def test_compile_does_not_mutate_the_input_graph():
    graph = ScanWorkload().build_dmt({"n": 32})
    before = len(graph)
    compile_kernel(graph)
    assert len(graph) == before


def test_compiled_kernel_reports_interthread_usage():
    compiled = compile_kernel(ScanWorkload().build_dmt({"n": 32}))
    assert compiled.elevator_nodes()
    assert not compiled.uses_barriers()
    assert compiled.replicas >= 1
    assert "elevator" in compiled.report()


def test_mt_variant_reports_barriers():
    compiled = compile_kernel(ScanWorkload().build_mt({"n": 32}))
    assert compiled.uses_barriers()
    assert not compiled.elevator_nodes() and not compiled.eldst_nodes()


def test_matmul_eldst_nodes_survive_compilation():
    compiled = compile_kernel(MatmulWorkload().build_dmt({"dim": 8}))
    assert len(compiled.eldst_nodes()) == 2 * 8
    assert compiled.num_threads == 64
    assert compiled.block_dim == (8, 8)


def test_pass_results_are_recorded():
    compiled = compile_kernel(ScanWorkload().build_dmt({"n": 32}),
                              config=default_system_config())
    names = [r.pass_name for r in compiled.pass_results]
    assert "cascade-elevators" in names
    assert "replicate" in names


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` in every ``repro`` module that imported it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get(original.__name__) is original:
            monkeypatch.setattr(module, original.__name__, replacement)


def test_one_compile_lays_out_one_grid_and_checks_structure_once_per_change(monkeypatch):
    graph = MatmulWorkload().build_dmt({"dim": 8})
    layouts = []
    original_init = PhysicalGrid.__init__

    def counting_init(self, config):
        layouts.append(config)
        original_init(self, config)

    structure_runs = []

    def counting_structure(checked):
        structure_runs.append(checked.name)
        return structure_diagnostics(checked)

    monkeypatch.setattr(PhysicalGrid, "__init__", counting_init)
    _patch_everywhere(monkeypatch, structure_diagnostics, counting_structure)
    grid_layout.cache_clear()
    compiled = compile_kernel(graph)

    assert len(layouts) == 1
    changed = sum(result.changed for result in compiled.pass_results)
    assert len(structure_runs) == 1 + changed

    # The layout is shared: a second compile on the same grid lays out none.
    assert compile_kernel(graph).placement.grid is compiled.placement.grid
    assert len(layouts) == 1

    first = analyze_kernel(compiled)

    def refuse(config):
        raise AssertionError("a repeat analysis must not digest the config")

    _patch_everywhere(monkeypatch, config_digest, refuse)
    assert analyze_kernel(compiled) is first
