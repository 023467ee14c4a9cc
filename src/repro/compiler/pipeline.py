"""The compilation pipeline: kernel graph -> legalised, placed, routed kernel.

This is the Python stand-in for the paper's LLVM-based toolchain
(Sec. 5.1 "Compiler"): the kernel builder produces an SSA-like dataflow
graph, the passes legalise inter-thread communication for the hardware
limits of Table 2, and the mapper configures the grid and interconnect.
The output, a :class:`CompiledKernel`, is what both simulators consume.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

from repro.arch.grid import PhysicalGrid
from repro.compiler.mapper.placement import (
    ANNEAL_ITERATIONS,
    ANNEAL_SEED,
    Placement,
    place_graph,
)
from repro.compiler.mapper.routing import route_placement
from repro.compiler.passes.base import PassResult
from repro.compiler.passes.cascade import CascadeElevatorsPass
from repro.compiler.passes.constant_fold import ConstantFoldPass
from repro.compiler.passes.dce import DeadCodeEliminationPass
from repro.compiler.passes.eldst_buffer import EldstBufferPass
from repro.compiler.passes.replicate import ReplicatePass
from repro.config.system import CgraGridConfig, SystemConfig, default_system_config
from repro.errors import CompilationError
from repro.graph.dfg import DataflowGraph
from repro.graph.index import KernelIndex
from repro.graph.opcodes import Opcode
from repro.graph.validate import validate_graph

__all__ = ["CompiledKernel", "compile_kernel", "grid_layout", "placement_memo"]


@dataclass(frozen=True)
class CompiledKernel:
    """A kernel ready for simulation.

    ``index`` is the one adjacency source after compile: the routed
    :class:`~repro.graph.index.KernelIndex` of ``graph``, built once when
    the last pass has run.  Its ``edge_hops`` is the one hop table;
    ``placement`` assigns each node its physical unit.
    """

    graph: DataflowGraph
    config: SystemConfig
    pass_results: tuple[PassResult, ...]
    placement: Placement
    index: KernelIndex

    # ------------------------------------------------------------------ queries
    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def replicas(self) -> int:
        return int(self.graph.metadata.get("replicas", 1))

    @property
    def num_threads(self) -> int:
        return int(self.graph.metadata["num_threads"])

    @property
    def block_dim(self) -> tuple[int, ...]:
        return tuple(self.graph.metadata["block_dim"])

    def elevator_nodes(self) -> list:
        return self.index.nodes_with_opcode(Opcode.ELEVATOR)

    def eldst_nodes(self) -> list:
        return self.index.nodes_with_opcode(Opcode.ELDST)

    def uses_barriers(self) -> bool:
        return bool(self.index.nodes_with_opcode(Opcode.BARRIER))

    def spilled_nodes(self) -> list:
        return [n for n in self.index.nodes if n.param("spilled")]

    def report(self) -> str:
        index = self.index
        hops = index.edge_hops
        total_hops = sum(hops[(src, dst)] for src, dst, _ in index.edges)
        mean_hops = total_hops / len(index.edges) if index.edges else 0.0
        lines = [f"compiled kernel '{self.name}'"]
        lines.append(f"  nodes               : {len(index.nodes)}")
        lines.append(f"  edges               : {len(index.edges)}")
        lines.append(f"  threads             : {self.num_threads} (block {self.block_dim})")
        lines.append(f"  replicas            : {self.replicas}")
        lines.append(f"  elevator nodes      : {len(self.elevator_nodes())}")
        lines.append(f"  eLDST nodes         : {len(self.eldst_nodes())}")
        lines.append(f"  spilled transfers   : {len(self.spilled_nodes())}")
        lines.append(f"  routed hops         : {total_hops} (mean {mean_hops:.2f} per edge)")
        lines.append(f"  shared units        : {len(self.placement.shared_units())}")
        for result in self.pass_results:
            if result.metrics:
                metrics = ", ".join(f"{k}={v}" for k, v in sorted(result.metrics.items()))
                lines.append(f"  pass {result.pass_name:<22}: {metrics}")
        return "\n".join(lines)


@dataclass(unsafe_hash=True)
class _PlacementInput:
    """Everything :func:`place_graph` reads, compared and hashed by ``key``.

    The key holds the grid config, the annealer's iteration count and
    seed, the nodes in insertion order as ``(node_id, opcode, dtype)``
    (unit classes and temporal edges derive from these) and the edges in
    ``graph.edges()`` order as ``(src, dst)`` (Kahn's order and the
    annealer's node order follow it), all read from the kernel's index.
    ``index`` and ``grid`` carry a miss to the search and are dropped once
    it has run, so the memo keeps keys and assignments only.
    """

    key: tuple
    index: KernelIndex | None = field(compare=False)
    grid: PhysicalGrid | None = field(compare=False)

    @classmethod
    def of(cls, index: KernelIndex, grid: PhysicalGrid) -> "_PlacementInput":
        nodes = tuple((n.node_id, n.opcode, n.dtype) for n in index.nodes)
        edges = tuple((src, dst) for src, dst, _ in index.edges)
        return cls((grid.config, ANNEAL_ITERATIONS, ANNEAL_SEED, nodes, edges), index, grid)


@functools.lru_cache(maxsize=16)
def grid_layout(config: CgraGridConfig) -> PhysicalGrid:
    """The one :class:`PhysicalGrid` laid out per grid config.

    A grid is read-only once built, so every compile on ``config`` shares
    it; ``cache_clear()`` makes the next compile lay it out again.
    """
    return PhysicalGrid(config)


@functools.lru_cache(maxsize=64)
def placement_memo(request: _PlacementInput) -> tuple[tuple[int, int], ...]:
    """The ``node_to_unit`` items :func:`place_graph` gives ``request``.

    Process-local and thread-safe; ``cache_info()`` feeds ``GET
    /v1/stats`` and ``cache_clear()`` forces the next compile to search.
    """
    placement = place_graph(request.index, request.grid, ANNEAL_ITERATIONS, ANNEAL_SEED)
    request.index = request.grid = None
    return tuple(placement.node_to_unit.items())


def compile_kernel(graph: DataflowGraph, config: SystemConfig | None = None) -> CompiledKernel:
    """Compile a kernel graph for the configured dMT-CGRA system.

    Validates the graph, runs the five passes (re-validating after each
    one that changed its structure), indexes the result once
    (:class:`~repro.graph.index.KernelIndex`), places and routes it on the
    config's grid layout (:func:`grid_layout`), and analyzes it once; each
    error-severity finding becomes a :class:`UserWarning`.  The input
    graph is not modified; compilation operates on a copy.  The placement
    search runs once per placement input (:data:`placement_memo`); a
    repeat reuses its assignment.
    """
    config = config or default_system_config()
    working = graph.copy()
    validate_graph(working)

    results: list[PassResult] = []
    for compiler_pass in (
        ConstantFoldPass(),
        DeadCodeEliminationPass(),
        CascadeElevatorsPass(),
        EldstBufferPass(),
        ReplicatePass(),
    ):
        try:
            result = compiler_pass.run(working, config)
        except CompilationError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise CompilationError(
                f"pass {compiler_pass.name} failed on graph '{working.name}': {exc}"
            ) from exc
        results.append(result)
        if result.changed:
            validate_graph(working)

    index = KernelIndex.of(working)
    grid = grid_layout(config.grid)
    placement = Placement(index, grid, dict(placement_memo(_PlacementInput.of(index, grid))))
    compiled = CompiledKernel(
        graph=working,
        config=config,
        pass_results=tuple(results),
        placement=placement,
        index=index.routed(config, route_placement(placement)),
    )

    # Looked up per call, so a wrapper patched onto
    # ``repro.analyze.manager.analyze_kernel`` (a profiler's span) sees
    # the compile-time analysis too.
    from repro.analyze.manager import analyze_kernel

    for diagnostic in analyze_kernel(compiled).errors():
        warnings.warn(
            f"static analysis of kernel '{compiled.name}': {diagnostic.format()}",
            stacklevel=2,
        )
    return compiled
