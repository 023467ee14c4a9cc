"""Untimed functional dataflow interpreter.

The functional interpreter is the correctness oracle of the repository:
it executes a kernel dataflow graph for every thread of the block, fully
honouring the inter-thread communication semantics (elevator nodes, eLDST
forwarding, transmission windows, barriers), but without modelling time.
Workload tests compare its results — and the cycle simulator's results —
against NumPy references.

Evaluation is demand driven with memoisation: the interpreter pulls the
values required by every side-effecting node (stores and outputs) of every
thread.  Inter-thread recurrences such as the prefix-sum example (Fig. 6)
become recursive demands into other threads' values; a genuine cyclic
dependency (a kernel that could never satisfy the dataflow firing rule) is
reported as a :class:`~repro.errors.DeadlockError` with the offending
chain, mirroring a hardware deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import DeadlockError, SimulationError
from repro.graph.dfg import DataflowGraph
from repro.graph.interthread import map_key, producer_map
from repro.graph.opcodes import EFFECT_OPCODES, Opcode
from repro.graph.semantics import PURE_OPCODES, coerce, evaluate_pure
from repro.kernel.geometry import ThreadGeometry
from repro.memory.image import MemoryImage
from repro.sim.launch import KernelLaunch

__all__ = ["FunctionalResult", "FunctionalSimulator", "run_functional"]


@dataclass
class FunctionalResult:
    """Outcome of a functional run."""

    memory: MemoryImage
    outputs: dict[str, list[Any]]
    node_executions: dict[int, int] = field(default_factory=dict)

    def array(self, name: str) -> np.ndarray:
        return self.memory.array(name)

    def output(self, name: str) -> list[Any]:
        return self.outputs[name]


class FunctionalSimulator:
    """Demand-driven evaluator of one kernel launch."""

    def __init__(self, launch: KernelLaunch) -> None:
        self.launch = launch
        self.graph: DataflowGraph = launch.graph
        self.geometry: ThreadGeometry = launch.geometry
        self.num_threads = self.geometry.num_threads
        self.memory = launch.build_memory_image()
        self.outputs: dict[str, list[Any]] = {}
        self._values: dict[tuple[int, int], Any] = {}
        self._node_executions: dict[int, int] = {}
        self._inputs_cache: dict[int, dict[int, int]] = {
            node.node_id: self.graph.inputs_of(node.node_id) for node in self.graph.nodes
        }
        # Producer TID of every thread per ELEVATOR/ELDST node (-1: none),
        # one list per distinct map.
        maps: dict[tuple, list[int]] = {}
        self._sources: dict[int, list[int]] = {}
        for node in self.graph.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST):
            key = map_key(node)
            if key not in maps:
                maps[key] = producer_map(node, self.geometry.block_dim).tolist()
            self._sources[node.node_id] = maps[key]

    # ------------------------------------------------------------------ driver
    def run(self) -> FunctionalResult:
        sinks = [n for n in self.graph.nodes if n.opcode in EFFECT_OPCODES]
        for node in self.graph.nodes:
            if node.opcode is Opcode.OUTPUT:
                self.outputs.setdefault(
                    str(node.param("name")), [None] * self.num_threads
                )
        for tid in range(self.num_threads):
            for sink in sinks:
                self._demand(sink.node_id, tid)
        return FunctionalResult(
            memory=self.memory,
            outputs=self.outputs,
            node_executions=dict(self._node_executions),
        )

    # ------------------------------------------------------------- evaluation
    def _demand(self, node_id: int, tid: int) -> Any:
        """Evaluate ``(node_id, tid)`` iteratively (no Python recursion)."""
        root = (node_id, tid)
        if root in self._values:
            return self._values[root]
        stack: list[tuple[int, int]] = [root]
        on_stack: set[tuple[int, int]] = {root}
        while stack:
            frame = stack[-1]
            if frame in self._values:
                stack.pop()
                on_stack.discard(frame)
                continue
            missing = self._missing_dependencies(frame)
            if missing:
                # Push one dependency at a time so the stack stays a pure
                # ancestor path; a missing dependency already on that path is
                # then a genuine cyclic (deadlocking) dataflow dependency.
                dep = missing[0]
                if dep in on_stack:
                    chain = self._format_cycle(stack, dep)
                    raise DeadlockError(
                        f"kernel '{self.graph.name}' deadlocks: cyclic dataflow "
                        f"dependency {chain}"
                    )
                stack.append(dep)
                on_stack.add(dep)
                continue
            value = self._evaluate(frame)
            self._values[frame] = value
            self._node_executions[frame[0]] = self._node_executions.get(frame[0], 0) + 1
            stack.pop()
            on_stack.discard(frame)
        return self._values[root]

    def _format_cycle(self, stack: list[tuple[int, int]], dep: tuple[int, int]) -> str:
        labels = [
            f"{self.graph.node(nid).label()}@t{t}" for nid, t in stack[stack.index(dep):]
        ]
        labels.append(f"{self.graph.node(dep[0]).label()}@t{dep[1]}")
        return " -> ".join(labels)

    # ------------------------------------------------------------ dependencies
    def _missing_dependencies(self, frame: tuple[int, int]) -> list[tuple[int, int]]:
        node_id, tid = frame
        node = self.graph.node(node_id)
        deps: list[tuple[int, int]] = []
        inputs = self._inputs_cache[node_id]

        if node.opcode is Opcode.ELEVATOR:
            src_tid = self._sources[node_id][tid]
            if src_tid >= 0:
                deps.append((inputs[0], src_tid))
        elif node.opcode is Opcode.ELDST:
            deps.append((inputs[1], tid))  # predicate
            if 2 in inputs:
                deps.append((inputs[2], tid))  # ordering token
            pred_key = (inputs[1], tid)
            if pred_key in self._values:
                if bool(self._values[pred_key]):
                    deps.append((inputs[0], tid))  # index for the real load
                else:
                    src_tid = self._sources[node_id][tid]
                    if src_tid < 0:
                        deps.append((inputs[0], tid))  # fallback: load anyway
                    else:
                        deps.append((node_id, src_tid))  # forwarded value
        elif node.opcode is Opcode.BARRIER:
            for other in range(self.num_threads):
                deps.append((inputs[0], other))
        else:
            for port in sorted(inputs):
                deps.append((inputs[port], tid))

        return [d for d in deps if d not in self._values]

    # --------------------------------------------------------------- execution
    def _evaluate(self, frame: tuple[int, int]) -> Any:
        node_id, tid = frame
        node = self.graph.node(node_id)
        op = node.opcode
        inputs = self._inputs_cache[node_id]

        if op is Opcode.CONST:
            return coerce(node.param("value"), node.dtype)
        if op in (Opcode.TID_X, Opcode.TID_Y, Opcode.TID_LINEAR):
            x, y, _ = self.geometry.unlinearize(tid)
            return {Opcode.TID_X: x, Opcode.TID_Y: y, Opcode.TID_LINEAR: tid}[op]

        if op in PURE_OPCODES:
            operands = [self._values[(inputs[p], tid)] for p in sorted(inputs)]
            return evaluate_pure(node, operands)

        if op is Opcode.LOAD or op is Opcode.SCRATCH_LOAD:
            index = self._values[(inputs[0], tid)]
            return coerce(self.memory.load(node.param("array"), index), node.dtype)
        if op is Opcode.STORE or op is Opcode.SCRATCH_STORE:
            index = self._values[(inputs[0], tid)]
            value = self._values[(inputs[1], tid)]
            self.memory.store(node.param("array"), index, value)
            return value
        if op is Opcode.OUTPUT:
            value = self._values[(inputs[0], tid)]
            self.outputs[str(node.param("name"))][tid] = value
            return value
        if op is Opcode.BARRIER:
            return self._values[(inputs[0], tid)]

        if op is Opcode.ELEVATOR:
            src_tid = self._sources[node_id][tid]
            if src_tid < 0:
                return coerce(node.param("const"), node.dtype)
            return self._values[(inputs[0], src_tid)]

        if op is Opcode.ELDST:
            predicate = bool(self._values[(inputs[1], tid)])
            if predicate:
                index = self._values[(inputs[0], tid)]
                return coerce(self.memory.load(node.param("array"), index), node.dtype)
            src_tid = self._sources[node_id][tid]
            if src_tid < 0:
                index = self._values[(inputs[0], tid)]
                return coerce(self.memory.load(node.param("array"), index), node.dtype)
            return self._values[(node_id, src_tid)]

        raise SimulationError(f"functional simulator cannot execute {op.value}")


def run_functional(launch: KernelLaunch) -> FunctionalResult:
    """Convenience wrapper: build a simulator, run it, return the result."""
    return FunctionalSimulator(launch).run()
