"""Cross-variant correctness tests for every Table 3 workload.

Every workload must produce the same named outputs as its NumPy reference
on all three architectures; the dataflow variants are checked both on the
functional interpreter and on the cycle-level simulator, and the Fermi
variant on the SIMT core.  These are the integration tests that make the
Figure 11/12 comparisons meaningful.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.gpgpu.simulator import run_fermi
from repro.sim import simulate
from repro.sim.functional import run_functional
from repro.workloads.registry import all_workloads, get_workload, workload_names

#: Small sizes keep the full matrix of checks fast.
SMALL_PARAMS = {
    "scan": {"n": 64},
    "matrixMul": {"dim": 8},
    "convolution": {"n": 64},
    "reduce": {"n": 64, "window": 16},
    "lud": {"dim": 8},
    "srad": {"dim": 8},
    "bpnn": {"n_in": 8, "n_out": 8},
    "hotspot": {"dim": 8},
    "pathfinder": {"cols": 64, "rows": 4},
    "spmv": {"rows": 16, "max_nnz": 4},
}

WORKLOADS = workload_names()


def _prepared(name: str):
    return get_workload(name).prepare(SMALL_PARAMS[name], seed=3)


# ------------------------------------------------------------------ registry
def test_registry_matches_table3():
    workloads = all_workloads()
    assert len(workloads) == 10
    assert set(WORKLOAD_NAMES_EXPECTED) == set(w.name for w in workloads)


WORKLOAD_NAMES_EXPECTED = [
    "scan",
    "matrixMul",
    "convolution",
    "reduce",
    "lud",
    "srad",
    "bpnn",
    "hotspot",
    "pathfinder",
    "spmv",
]


def test_unknown_workload_rejected():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        get_workload("nonexistent")


@pytest.mark.parametrize("seed", [-5, 1.9, True, "1", None], ids=repr)
def test_prepare_takes_only_non_negative_int_seeds(seed):
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="seed must be an int of at least 0"):
        get_workload("matrixMul").prepare({"dim": 4}, seed=seed)


def test_numpy_int_seed_is_the_same_seed():
    workload = get_workload("matrixMul")
    a = workload.prepare({"dim": 4}, seed=np.int64(3))
    b = workload.prepare({"dim": 4}, seed=3)
    assert type(a.seed) is int and a.seed == 3
    assert all(np.array_equal(a.inputs[k], b.inputs[k]) for k in b.inputs)


def test_table3_rows_have_descriptions():
    for workload in all_workloads():
        row = workload.table3_row()
        assert row["application"] and row["domain"] and row["kernel"]


# -------------------------------------------------------------- correctness
@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("variant", ["dmt", "mt"])
def test_dataflow_variants_match_reference_functionally(name, variant):
    prepared = _prepared(name)
    launch = prepared.launch(variant)
    result = run_functional(launch)
    prepared.check_outputs({k: result.array(k) for k in prepared.expected})


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("variant", ["dmt", "mt"])
def test_dataflow_variants_match_reference_on_cycle_simulator(name, variant):
    prepared = _prepared(name)
    launch = prepared.launch(variant)
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch)
    prepared.check_outputs({k: result.array(k) for k in prepared.expected})
    assert result.cycles > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_fermi_variant_matches_reference(name):
    prepared = _prepared(name)
    program = prepared.fermi_program()
    result = run_fermi(program, prepared.fermi_inputs(program))
    prepared.check_outputs({k: result.array(k) for k in prepared.expected})


# ----------------------------------------------------------- paper structure
@pytest.mark.parametrize("name", WORKLOADS)
def test_dmt_variants_use_no_shared_memory_or_barriers(name):
    prepared = _prepared(name)
    graph = prepared.workload.build_dmt(prepared.params)
    from repro.graph.opcodes import Opcode

    assert not graph.nodes_with_opcode(Opcode.BARRIER)
    assert not graph.nodes_with_opcode(Opcode.SCRATCH_LOAD, Opcode.SCRATCH_STORE)
    assert graph.nodes_with_opcode(Opcode.ELEVATOR) or graph.nodes_with_opcode(Opcode.ELDST)


@pytest.mark.parametrize("name", WORKLOADS)
def test_mt_variants_use_shared_memory_and_barriers(name):
    prepared = _prepared(name)
    graph = prepared.workload.build_mt(prepared.params)
    from repro.graph.opcodes import Opcode

    assert graph.nodes_with_opcode(Opcode.BARRIER)
    assert not graph.nodes_with_opcode(Opcode.ELEVATOR)
    assert not graph.nodes_with_opcode(Opcode.ELDST)


def test_matmul_fig3_forwarding_pattern():
    """Fig. 3: threads computing the first row/column load, others forward."""
    prepared = get_workload("matrixMul").prepare({"dim": 3}, seed=0)
    launch = prepared.launch("dmt")
    compiled = compile_kernel(launch.graph)
    result = simulate(compiled, launch)
    prepared.check_outputs({"c": result.array("c")})
    dim = 3
    # Only 2 * dim^2 elements are loaded from the source matrices (plus no
    # redundant loads), versus 2 * dim^3 for the scratchpad version.
    assert result.stats.eldst_memory_loads == 2 * dim * dim
    assert result.stats.eldst_forwards == 2 * dim * dim * (dim - 1)


def test_matmul_dmt_reduces_global_loads_versus_mt():
    prepared = _prepared("matrixMul")
    dmt = prepared.launch("dmt")
    mt = prepared.launch("mt")
    dmt_result = simulate(compile_kernel(dmt.graph), dmt)
    mt_result = simulate(compile_kernel(mt.graph), mt)
    assert (
        dmt_result.stats.global_loads
        < mt_result.stats.global_loads + mt_result.stats.scratch_loads
    )


def test_reference_outputs_are_deterministic():
    a = _prepared("hotspot").expected["out"]
    b = _prepared("hotspot").expected["out"]
    np.testing.assert_allclose(a, b)
