"""Tests for the end-to-end compilation pipeline."""

from repro.compiler.pipeline import CompilerOptions, compile_kernel
from repro.config.system import default_system_config
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


def test_mapping_can_be_disabled():
    options = CompilerOptions(map_to_grid=False)
    compiled = compile_kernel(ScanWorkload().build_dmt({"n": 32}), options=options)
    assert compiled.mapping is None
    assert compiled.edge_hops(0, 1) == 0


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
