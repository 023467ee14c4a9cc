#!/usr/bin/env python3
"""Memory-value forwarding with ``fromThreadOrMem`` (paper Fig. 2b / Fig. 3).

Runs the dense matrix multiplication workload on all three simulated
architectures and shows where the dMT-CGRA advantage comes from: only the
first thread of each row/column issues a real memory load, every other
thread receives the value forwarded through the eLDST units, cutting
global loads from O(dim^3) to O(dim^2).

Run with::

    python examples/matmul_forwarding.py [dim]

Expected output: a per-architecture cycles / global-loads / scratchpad /
energy table in which only dmt does zero scratchpad accesses, the
dMT-vs-Fermi and dMT-vs-MT speedup lines (> 1x), and the eLDST activity
summary showing most operand values forwarded in-fabric rather than
loaded from memory.  Exit status 0.
"""

from __future__ import annotations

import sys

from repro.harness import run_workload
from repro.workloads import ARCHITECTURES


def main() -> None:
    dim = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    print(f"dense {dim}x{dim} matrix multiplication, one thread per output element\n")

    results = {name: run_workload("matrixMul", name, params={"dim": dim}) for name in ARCHITECTURES}

    header = (
        f"{'architecture':<12} {'cycles':>8} {'global loads':>13} "
        f"{'scratch accesses':>17} {'energy [uJ]':>12}"
    )
    print(header)
    print("-" * len(header))
    for name in ARCHITECTURES:
        result = results[name]
        scratch = result.counters["scratch_loads"] + result.counters["scratch_stores"]
        print(
            f"{name:<12} {result.cycles:>8} {result.counters['global_loads']:>13} "
            f"{scratch:>17} {result.energy.total_uj:>12.2f}"
        )

    fermi, mt, dmt = results["fermi"], results["mt"], results["dmt"]
    print()
    print(f"speedup   dMT-CGRA vs Fermi SM : {fermi.cycles / dmt.cycles:.2f}x")
    print(f"speedup   dMT-CGRA vs MT-CGRA  : {mt.cycles / dmt.cycles:.2f}x")
    print(f"energy    dMT-CGRA vs Fermi SM : {fermi.energy_pj / dmt.energy_pj:.2f}x better")
    print()
    print("dMT-CGRA eLDST activity:")
    print(f"  values loaded from memory : {dmt.counters['eldst_memory_loads']}")
    print(f"  values forwarded in-fabric: {dmt.counters['eldst_forwards']}")
    print(
        "  (the forwarded values are exactly the redundant loads the\n"
        "   scratchpad versions perform via shared memory)"
    )


if __name__ == "__main__":
    main()
