"""Work budget of the annealer: no Python frame per move.

``AnnealingRefiner.refine`` builds its tables in Python once per call,
then runs every move inline: the random draws, the swap-partner lookup,
the delta and the Metropolis test call only builtins.  So the number of
Python ``call`` events ``sys.setprofile`` sees during one ``refine`` does
not depend on the iteration count.  A helper function, or a library
draw such as ``Random.choice``, in the move loop adds calls per move at
once (``choice`` costs two frames a draw: 6 993 calls at 1 500 moves and
12 993 at 3 000 on this graph).  The test pins the equality, not the
count, which depends on the interpreter.
"""

from __future__ import annotations

import sys

from repro.arch.grid import PhysicalGrid
from repro.compiler.mapper.placement import AnnealingRefiner, GreedyPlacer
from repro.compiler.pipeline import compile_kernel
from repro.config.system import CgraGridConfig
from repro.workloads.registry import get_workload


def _calls_during_refine(index, iterations: int) -> int:
    seed = GreedyPlacer(PhysicalGrid(CgraGridConfig())).place(index)
    refiner = AnnealingRefiner(iterations=iterations)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        refiner.refine(seed)
    finally:
        sys.setprofile(previous)
    return calls


def test_refine_makes_no_python_call_per_move():
    workload = get_workload("matrixMul")
    params = workload.params_with_defaults({"dim": 16})
    index = compile_kernel(workload.build_graph("mt", params)).index
    assert _calls_during_refine(index, 1500) == _calls_during_refine(index, 3000)
