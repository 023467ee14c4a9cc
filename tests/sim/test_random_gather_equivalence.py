"""Property sweep: random data-dependent gather chains, event vs batched.

The spmv workload pins one concrete RA042 kernel; this sweep generalises
it.  Hypothesis draws random index arrays and chains them —
``load(idx_k, load(idx_{k-1}, ... tid))`` — so every load after the
first has a data-dependent address, which is exactly the shape that
forces the batched engine's per-node replay fallback (the trace is not
order-stable).  Outputs must stay bit-identical to the event engine and
every operation counter equal; only cycles (and engine provenance) may
differ.  Cyclic recurrences are excluded by construction: the chains are
acyclic load DAGs, the only inter-thread-free shape the batched engine
accepts.

Marked ``slow``: tier-1 and the CI ``tier1`` job run it, the fast lane
skips it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.pipeline import compile_kernel
from repro.graph.opcodes import DType
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.launch import KernelLaunch

pytestmark = pytest.mark.slow


@st.composite
def gather_chains(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    depth = draw(st.integers(min_value=1, max_value=3))
    index_arrays = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
            )
        )
        for _ in range(depth)
    ]
    values = draw(
        st.lists(
            st.floats(
                min_value=-8.0, max_value=8.0, allow_nan=False, width=32
            ),
            min_size=n,
            max_size=n,
        )
    )
    scale = draw(st.sampled_from([1.0, 2.0, -0.5]))
    return n, index_arrays, values, scale


@given(gather_chains())
# The smallest float32 subnormal times -0.5 underflows to -0.0 in float32
# but not in the engines' float64 arithmetic.
@example((4, [[0, 0, 0, 0]], [1.401298464324817e-45, 0.0, 0.0, 0.0], -0.5))
@settings(max_examples=40, deadline=None)
def test_random_gather_chain_is_engine_invariant(chain):
    n, index_arrays, values, scale = chain

    b = KernelBuilder("gather_chain", n)
    for level, _ in enumerate(index_arrays):
        b.global_array(f"idx{level}", n, dtype=DType.I32)
    b.global_array("vals", n)
    b.global_array("out", n)
    tid = b.thread_idx_x()
    pointer = tid
    for level, _ in enumerate(index_arrays):
        pointer = b.load(f"idx{level}", pointer)  # data-dependent address
    b.store("out", tid, b.load("vals", pointer) * scale)
    graph = b.finish()

    inputs = {f"idx{level}": arr for level, arr in enumerate(index_arrays)}
    inputs["vals"] = values

    compiled = compile_kernel(graph)
    event = simulate(compiled, KernelLaunch(graph, dict(inputs)), engine="event")
    batched = simulate(compiled, KernelLaunch(graph, dict(inputs)))
    assert batched.engine == "batched"

    # NumPy reference: follow the chain, then scale — in float64, the
    # precision the engines store and compute F32 arrays in.
    pointer = np.arange(n)
    for arr in index_arrays:
        pointer = np.asarray(arr)[pointer]
    expected = np.asarray(values, dtype=np.float64)[pointer] * scale

    assert np.array_equal(event.array("out"), batched.array("out"))
    np.testing.assert_allclose(batched.array("out"), expected, rtol=1e-6)

    event_counters = event.stats.as_dict()
    batched_counters = batched.stats.as_dict()
    for counter, value in event_counters.items():
        if counter in ("cycles", "engine"):
            continue
        assert batched_counters[counter] == value, counter
