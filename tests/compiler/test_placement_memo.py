"""The placement memo: a hit reuses the search's exact output, and only then.

``compile_kernel`` runs the greedy-plus-annealing placement once per
placement input (grid config, annealer iterations and seed, post-pass
nodes and edges in order).  A repeat under a config the placer does not
read must give the byte-identical assignment and routing a fresh search
gives; a changed grid, node dtype, added edge or reordered edge list must
search again.
"""

import dataclasses
import sys
import threading
import warnings

import pytest

from repro.arch.grid import PhysicalGrid
from repro.compiler.mapper.placement import place_graph
from repro.compiler.pipeline import compile_kernel, placement_memo
from repro.config.system import CgraGridConfig, default_system_config
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import DType, Opcode
from repro.workloads.registry import get_workload, registry_kernels

DEFAULT = default_system_config()
#: Fields the placer never reads: a sweep over them should place once.
SWEPT = dataclasses.replace(
    DEFAULT,
    cores=4,
    token_buffer=dataclasses.replace(DEFAULT.token_buffer, entries=32),
).validate()


def _compile(graph, config=DEFAULT):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compile_kernel(graph, config)


def _configuration(compiled):
    return (
        list(compiled.placement.node_to_unit.items()),
        list(compiled.index.edge_hops.items()),
    )


def _placement_input(compiled):
    graph = compiled.graph
    return (
        compiled.config.grid,
        [(n.node_id, n.opcode, n.dtype) for n in graph.nodes],
        [(e.src, e.dst) for e in graph.edges()],
    )


def _searched(compiled):
    """The assignment a fresh search gives ``compiled``'s post-pass graph."""
    fresh = place_graph(compiled.index, PhysicalGrid(compiled.config.grid))
    return list(fresh.node_to_unit.items())


@pytest.mark.parametrize(
    ("workload", "variant"),
    registry_kernels(),
    ids=[f"{w.name}-{v}" for w, v in registry_kernels()],
)
def test_memo_hit_is_byte_identical_to_a_fresh_search(workload, variant):
    graph = workload.build_graph(variant, workload.params_with_defaults(None))
    placement_memo.cache_clear()
    default = _compile(graph)
    swept = _compile(graph, SWEPT)
    hit = placement_memo.cache_info().hits == 1
    placement_memo.cache_clear()
    fresh = _compile(graph, SWEPT)

    # A hit exactly when the placer's input is unchanged.
    assert hit == (_placement_input(default) == _placement_input(swept))
    assert _configuration(swept) == _configuration(fresh)
    if hit:
        assert _configuration(default) == _configuration(swept)
    assert list(fresh.placement.node_to_unit.items()) == _searched(fresh)


def _matmul():
    workload = get_workload("matrixMul")
    return workload.build_graph("dmt", workload.params_with_defaults({"dim": 8}))


def _with_an_added_edge(graph):
    changed = graph.copy()
    store = next(n for n in changed.nodes if n.name == "store_c")
    eldst = next(n for n in changed.nodes if n.name == "eldst_a")
    changed.add_edge(eldst, store, 2)  # the store's free predicate port
    return changed


def _with_an_integer_fma(graph):
    """One FMA moved from an FPU to an ALU by its dtype alone."""
    changed = graph.copy()
    next(n for n in changed.nodes if n.opcode is Opcode.FMA).dtype = DType.I32
    return changed


def _with_edges_reversed(graph):
    """The same nodes and edges, the edges inserted in reverse order."""
    clone = DataflowGraph(graph.name)
    for node in graph.nodes:
        clone.add_node(node.opcode, node.dtype, node.params, node.name)
    assert [n.node_id for n in clone.nodes] == [n.node_id for n in graph.nodes]
    for edge in reversed(list(graph.edges())):
        clone.add_edge(edge.src, edge.dst, edge.dst_port)
    clone.metadata = dict(graph.metadata)
    return clone


def _grid_transposed(config):
    grid = config.grid
    return dataclasses.replace(config, grid=CgraGridConfig(rows=grid.cols, cols=grid.rows))


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda g, c: (g, _grid_transposed(c)), id="grid-field"),
        pytest.param(lambda g, c: (_with_an_added_edge(g), c), id="added-edge"),
        pytest.param(lambda g, c: (_with_an_integer_fma(g), c), id="node-dtype"),
        pytest.param(lambda g, c: (_with_edges_reversed(g), c), id="edge-order"),
    ],
)
def test_a_changed_placement_input_searches_again(change):
    graph = _matmul()
    placement_memo.cache_clear()
    base = _compile(graph)
    changed = _compile(*change(graph, DEFAULT))

    assert _placement_input(changed) != _placement_input(base)
    assert placement_memo.cache_info().misses == 2
    assert list(changed.placement.node_to_unit.items()) == _searched(changed)


def test_edge_order_change_keeps_nodes_and_edge_set():
    base = _compile(_matmul())
    reordered = _compile(_with_edges_reversed(_matmul()))
    base_input, reordered_input = _placement_input(base), _placement_input(reordered)
    assert base_input[1] == reordered_input[1]
    assert sorted(base_input[2]) == sorted(reordered_input[2])
    assert base_input[2] != reordered_input[2]


def test_concurrent_compiles_share_one_search_result():
    graph = get_workload("scan").build_graph("dmt", {"n": 32})
    placement_memo.cache_clear()
    threads, compiled, lock = 8, [], threading.Lock()
    start = threading.Barrier(threads)

    def compile_once():
        start.wait(timeout=30)
        kernel = compile_kernel(graph)
        with lock:
            compiled.append(kernel)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    # One filter for every thread: catch_warnings itself is not thread-safe.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            workers = [threading.Thread(target=compile_once) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)

    assert len(compiled) == threads
    assert all(_configuration(kernel) == _configuration(compiled[0]) for kernel in compiled)
    assert list(compiled[0].placement.node_to_unit.items()) == _searched(compiled[0])
    info = placement_memo.cache_info()
    assert info.hits + info.misses == threads
    assert info.currsize == 1
