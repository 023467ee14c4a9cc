"""Structure pass: the analyzer's form of graph validation.

This pass owns the structural checks that used to live as bare strings in
:mod:`repro.graph.validate`: operand arity and port contiguity, opcode
parameters, dtype rules, sink fan-out, non-temporal acyclicity, and the
"kernel must observably do something" rule.  ``validate_graph`` now
delegates here and re-raises the same messages, so the raise-on-error
contract (and every existing error string) is unchanged — the structure
pass just also carries stable codes and node provenance.

This module deliberately imports only graph submodules and the
diagnostics core so that ``repro.graph.validate`` (imported while the
``repro.graph`` package itself is still initialising) can import it
without a cycle.
"""

from __future__ import annotations

from repro.analyze.diagnostics import Diagnostic, Severity
from repro.graph.dfg import DataflowGraph, kahn_order
from repro.graph.node import Node
from repro.graph.opcodes import EFFECT_OPCODES, DType, Opcode, opcode_info

__all__ = ["structure_diagnostics"]

_COMPARISONS = (Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE, Opcode.EQ, Opcode.NE)


def _error(
    code: str, message: str, node: Node | None = None, hint: str | None = None
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        nodes=(node.node_id,) if node is not None else (),
        labels=(node.label(),) if node is not None else (),
        hint=hint,
    )


def _check_arity(node: Node, inputs: dict[int, int], out: list[Diagnostic]) -> None:
    info = opcode_info(node.opcode)
    arity = len(inputs)
    if not info.accepts_arity(arity):
        out.append(
            _error(
                "RA001",
                f"{node.label()}: has {arity} operands, expected between "
                f"{info.min_arity} and {info.max_arity}",
                node,
            )
        )
    ports = sorted(inputs)
    if ports and ports != list(range(len(ports))):
        out.append(
            _error(
                "RA001",
                f"{node.label()}: operand ports {ports} are not contiguous from 0",
                node,
            )
        )


def _check_params(node: Node, out: list[Diagnostic]) -> None:
    def param_error(message: str, hint: str | None = None) -> None:
        out.append(_error("RA002", message, node, hint))

    if node.opcode is Opcode.CONST and "value" not in node.params:
        param_error(f"{node.label()}: CONST node is missing its 'value' parameter")
    if node.opcode is Opcode.ELEVATOR:
        delta = node.param("delta")
        if not isinstance(delta, int) or delta == 0:
            param_error(f"{node.label()}: ELEVATOR delta must be a non-zero integer")
        if "const" not in node.params:
            param_error(f"{node.label()}: ELEVATOR is missing its fallback constant")
        window = node.param("window")
        if window is not None and (not isinstance(window, int) or window <= 0):
            param_error(f"{node.label()}: ELEVATOR window must be a positive integer")
    if node.opcode is Opcode.BARRIER:
        window = node.param("window")
        if window is not None and (not isinstance(window, int) or window <= 0):
            param_error(f"{node.label()}: BARRIER window must be a positive integer")
    if node.opcode is Opcode.ELDST:
        delta = node.param("delta")
        if not isinstance(delta, int) or delta <= 0:
            param_error(f"{node.label()}: ELDST delta must be a positive integer")
        if not node.param("array"):
            param_error(f"{node.label()}: ELDST is missing its 'array' parameter")
        window = node.param("window")
        if window is not None and (not isinstance(window, int) or window <= 0):
            param_error(f"{node.label()}: ELDST window must be a positive integer")
    if node.opcode in (Opcode.LOAD, Opcode.STORE, Opcode.ELDST):
        if not node.param("array"):
            param_error(f"{node.label()}: memory node is missing its 'array' parameter")
    if node.opcode in (Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE):
        if not node.param("array"):
            param_error(
                f"{node.label()}: scratchpad node is missing its 'array' parameter"
            )
    if node.opcode is Opcode.OUTPUT and not node.param("name"):
        param_error(f"{node.label()}: OUTPUT node is missing its 'name' parameter")


def _check_dtypes(
    graph: DataflowGraph, node: Node, inputs: dict[int, int], out: list[Diagnostic]
) -> None:
    if node.opcode in _COMPARISONS and node.dtype is not DType.BOOL:
        out.append(
            _error("RA003", f"{node.label()}: comparison nodes must produce BOOL", node)
        )
    if node.opcode is Opcode.SELECT:
        if 0 in inputs and graph.node(inputs[0]).dtype is not DType.BOOL:
            out.append(
                _error(
                    "RA003",
                    f"{node.label()}: SELECT condition operand must be BOOL",
                    node,
                )
            )


def structure_diagnostics(graph: DataflowGraph) -> list[Diagnostic]:
    """Run the structural checks over ``graph`` (all findings are errors)."""
    out: list[Diagnostic] = []
    nodes = graph.nodes
    drivers: set[int] = set()  # nodes with at least one consumer
    structural: list[tuple[int, int, int]] = []  # edges not into an ELEVATOR
    for node in nodes:
        nid = node.node_id
        inputs = graph.inputs_of(nid)
        drivers.update(inputs.values())
        if node.opcode is not Opcode.ELEVATOR:
            structural.extend((src, nid, port) for port, src in inputs.items())
        _check_arity(node, inputs, out)
        _check_params(node, out)
        _check_dtypes(graph, node, inputs, out)

    # Sinks must not feed anyone; already enforced by add_edge, re-check defensively.
    for node in nodes:
        if node.is_sink and node.node_id in drivers:
            out.append(
                _error("RA004", f"{node.label()}: sink node drives downstream consumers", node)
            )

    # The graph must be acyclic once temporal edges are removed.
    if kahn_order((node.node_id for node in nodes), structural) is None:
        out.append(
            _error("RA005", f"graph '{graph.name}' contains a cycle through non-temporal edges")
        )

    # A kernel must observably do something.
    has_effect = any(n.opcode in EFFECT_OPCODES for n in nodes)
    if nodes and not has_effect:
        out.append(
            _error(
                "RA006",
                "graph has no STORE or OUTPUT node; kernel has no visible effect",
                hint="add a store(), scratch_store() or output() to the kernel",
            )
        )
    return out
