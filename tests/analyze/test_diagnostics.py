"""Diagnostic core: codes, formatting, and structure-pass parity."""

import pytest

from repro.analyze import CODES, Diagnostic, Severity, structure_diagnostics
from repro.analyze.__main__ import main
from repro.errors import GraphValidationError
from repro.graph.dfg import DataflowGraph
from repro.graph.opcodes import Opcode
from repro.graph.validate import validate_graph


def test_unknown_code_is_rejected():
    with pytest.raises(ValueError):
        Diagnostic(code="RA999", severity=Severity.ERROR, message="nope")


def test_format_carries_code_severity_labels_and_hint():
    d = Diagnostic(
        code="RA020",
        severity=Severity.WARNING,
        message="unordered writes",
        nodes=(3, 7),
        labels=("a#3", "b#7"),
        hint="add a barrier",
    )
    line = d.format()
    assert line.startswith("RA020 warning: unordered writes")
    assert "[a#3, b#7]" in line
    assert "(hint: add a barrier)" in line
    assert d.title == CODES["RA020"]


def test_to_dict_is_json_plain():
    d = Diagnostic(
        code="RA034",
        severity=Severity.INFO,
        message="legal cut",
        data={"window_lcm": 12},
    )
    record = d.to_dict()
    assert record == {
        "code": "RA034",
        "severity": "info",
        "message": "legal cut",
        "data": {"window_lcm": 12},
    }


def _no_effect_graph() -> DataflowGraph:
    g = DataflowGraph("noop")
    tid = g.add_node(Opcode.TID_LINEAR)
    add = g.add_node(Opcode.ADD)
    g.add_edge(tid, add, 0)
    g.add_edge(tid, add, 1)
    return g


def test_validate_graph_raises_the_structure_messages():
    g = _no_effect_graph()
    diagnostics = structure_diagnostics(g)
    with pytest.raises(GraphValidationError) as excinfo:
        validate_graph(g)
    assert all(d.message in str(excinfo.value) for d in diagnostics)
    assert [d.code for d in diagnostics] == ["RA006"]
    assert all(d.severity is Severity.ERROR for d in diagnostics)


def test_validate_graph_raise_contract_is_unchanged():
    with pytest.raises(GraphValidationError) as excinfo:
        validate_graph(_no_effect_graph())
    assert "failed validation" in str(excinfo.value)
    assert "no STORE or OUTPUT node" in str(excinfo.value)


def test_structure_codes_for_malformed_nodes():
    g = DataflowGraph("bad")
    c = g.add_node(Opcode.CONST)  # missing 'value' -> RA002
    st = g.add_node(Opcode.STORE, params={"array": "o"})
    g.add_edge(c, st, 0)
    g.add_edge(c, st, 1)
    codes = [d.code for d in structure_diagnostics(g)]
    assert codes == ["RA002"]


def test_cli_rejects_a_variant_the_workload_does_not_build(capsys):
    assert main(["scan", "--variant", "dmt_win"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: workload 'scan' has no variant 'dmt_win'")
