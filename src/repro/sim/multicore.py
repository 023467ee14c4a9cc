"""Multi-core shard planning for one kernel launch.

The paper evaluates one thread block on one core (Sec. 5.1); sharding is
this repository's extension of that model: :func:`repro.sim.simulate`
with ``cores=N`` deals a :class:`KernelLaunch` across ``N`` simulated
cores with a block-cyclic thread partition, and single-core is the
one-shard case of the same run path.  This module decides the cut.

Sharding legality (window-aligned partitioning)
-----------------------------------------------
Inter-thread communication never crosses a transmission-window boundary
(Sec. 3.2, :func:`repro.graph.interthread.producer_map`), so a kernel that
communicates between threads *can* be sharded as long as every shard is a
union of whole windows.  The analyzer's shardability pass
(:func:`repro.analyze.passes.shard_plan`) decides the cut once per
kernel: it takes the LCM of every ELEVATOR/ELDST (and windowed BARRIER)
window and rounds the replica count up to it, which gives the
block-cyclic shard block; graphs whose only inter-thread node is an
un-windowed BARRIER shard with a per-shard barrier, which preserves every
value as long as no data flows through the scratchpad.  Only when no
legal cut exists — an unbounded window, a window spanning the whole
block, whole-block scratchpad synchronisation, or a block that leaves a
second core no work — does the plan fall back to a single core;
``simulate`` records the reason in ``stats.extra["shard_fallback_reason"]``.
:func:`plan_shards` applies a launch's core count to that plan, and each
engine runs the shard :func:`core_threads` derives from it, so no
engine ever sees a thread subset the plan did not produce.

Memory model
------------
Each core owns a private L1 and a ``1/cores`` slice of the L2
(:meth:`MemorySystemConfig.sliced`), but all cores contend for one
:class:`~repro.memory.shared_dram.SharedDRAM` device through per-core
ports, so DRAM bandwidth does not multiply with the core count.
Per-core :class:`~repro.sim.stats.ExecutionStats` are combined with
:meth:`ExecutionStats.merge` (cycles take the maximum — the cores run
concurrently — and volume counters the sum).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analyze.manager import analyze_kernel
from repro.analyze.passes import ShardPlan
from repro.compiler.pipeline import CompiledKernel
from repro.errors import SimulationError

__all__ = ["ShardPlan", "core_threads", "plan_shards", "shard_threads"]


def plan_shards(compiled: CompiledKernel, cores: int | None = None) -> ShardPlan:
    """The analyzer's shard plan for ``compiled`` on ``cores`` cores.

    ``cores`` defaults to ``SystemConfig.cores``.  A one-core run needs
    no plan; otherwise the analyzer's plan (cached on the kernel) is
    returned as is when it is a fallback, and with its core count set
    when a window-aligned cut exists.  The count is capped at the number
    of shard blocks, so every core of a sharded plan gets work.
    """
    cores = compiled.config.cores if cores is None else int(cores)
    if cores < 1:
        raise SimulationError("cores must be >= 1")
    if cores == 1:
        return ShardPlan(block=max(1, compiled.replicas), window_lcm=1)
    plan = analyze_kernel(compiled).shard
    if not plan.shardable:
        return plan
    blocks = -(-compiled.num_threads // plan.block)
    return replace(plan, cores=min(cores, blocks))


def core_threads(compiled: CompiledKernel, cores: int, core: int) -> np.ndarray:
    """The sorted linear thread IDs core ``core`` runs on ``cores`` cores.

    The shard comes from :func:`plan_shards`, so on a fallback plan core
    0 runs the whole launch; a core index outside the plan raises
    :class:`SimulationError`.
    """
    plan = plan_shards(compiled, cores)
    if not 0 <= core < plan.cores:
        raise SimulationError(
            f"core {core} is outside the {plan.cores}-core shard plan of "
            f"'{compiled.graph.name}'"
        )
    return shard_threads(compiled.num_threads, plan.cores, plan.block)[core]


def shard_threads(num_threads: int, cores: int, block: int) -> list[np.ndarray]:
    """Block-cyclic partition of ``range(num_threads)`` over ``cores``.

    Consecutive blocks of ``block`` linear thread IDs are dealt to the
    cores round-robin, so every core sees a representative slice of the
    TID space (and therefore of the address space) instead of one
    contiguous chunk.  For communicating kernels ``block`` must be a
    multiple of the graph's window LCM (see :func:`plan_shards`) so that
    each block is a union of whole transmission windows.
    """
    if cores < 1:
        raise SimulationError("cores must be >= 1")
    if block < 1:
        raise SimulationError("shard block size must be >= 1")
    tids = np.arange(num_threads, dtype=np.int64)
    owner = (tids // block) % cores
    return [tids[owner == core] for core in range(cores)]
