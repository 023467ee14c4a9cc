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
union of whole windows.  :func:`plan_shards` inspects every
ELEVATOR/ELDST (and windowed BARRIER) node, takes the LCM of their
windows, and aligns the block-cyclic shard block to a multiple of that
LCM; graphs whose only inter-thread node is an un-windowed BARRIER shard
with a per-shard barrier, which preserves every value as long as no data
flows through the scratchpad.  Only when no legal cut exists — an
unbounded window, a window spanning the whole block, or whole-block
scratchpad synchronisation — does the plan fall back to a single core;
``simulate`` records the reason in ``stats.extra["shard_fallback_reason"]``.

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

from dataclasses import dataclass

import numpy as np

from repro.analyze.manager import analyze_kernel
from repro.compiler.pipeline import CompiledKernel
from repro.errors import SimulationError

__all__ = ["ShardPlan", "plan_shards", "shard_threads"]


@dataclass(frozen=True)
class ShardPlan:
    """How (or why not) one compiled kernel shards across cores.

    ``block`` is the block-cyclic shard block size, always a multiple of
    ``window_lcm`` so every shard is a union of whole transmission
    windows; ``fallback_reason`` is set when the graph admits no legal
    multi-core cut and the launch must run on a single core.
    """

    cores: int
    block: int
    window_lcm: int
    fallback_reason: str | None = None
    #: Stable analyzer diagnostic code naming the fallback class
    #: (``RA030``/``RA031``/``RA032``/``RA033``); ``None`` when sharded.
    fallback_code: str | None = None

    @property
    def sharded(self) -> bool:
        return self.cores > 1 and self.fallback_reason is None


def _fallback(block: int, reason: str, code: str) -> ShardPlan:
    return ShardPlan(
        cores=1, block=block, window_lcm=1, fallback_reason=reason, fallback_code=code
    )


def plan_shards(
    compiled: CompiledKernel, cores: int | None = None, block: int | None = None
) -> ShardPlan:
    """Pick a window-aligned block-cyclic partition for ``compiled``.

    The shard boundary legality rule is ``boundary ≡ 0 (mod LCM of all
    transmission windows)``: every ELEVATOR/ELDST node must carry a
    bounded ``window`` and every shard block is padded up to a multiple
    of the windows' least common multiple.  BARRIER nodes contribute
    their ``window`` if they have one; an un-windowed barrier is legal
    per-shard only when the graph moves no data through the scratchpad.

    The legality facts come from the static analyzer's shardability
    verdict (cached on the kernel); only the block-size arithmetic, which
    depends on the caller's ``block``, is evaluated here.
    """
    config = compiled.config
    cores = config.cores if cores is None else int(cores)
    if cores < 1:
        raise SimulationError("cores must be >= 1")
    base_block = max(1, compiled.replicas) if block is None else int(block)
    if base_block < 1:
        raise SimulationError("shard block size must be >= 1")
    if cores == 1:
        return ShardPlan(cores=1, block=base_block, window_lcm=1)

    num_threads = compiled.num_threads
    verdict = analyze_kernel(compiled).shard
    if verdict.fallback_code in ("RA030", "RA031", "RA032"):
        # Block-size independent: no legal cut exists for any block.
        assert verdict.fallback_reason is not None
        return _fallback(base_block, verdict.fallback_reason, verdict.fallback_code)

    lcm = verdict.window_lcm
    aligned = -(-base_block // lcm) * lcm
    if aligned >= num_threads:
        return _fallback(
            aligned,
            f"shard block of {aligned} leaves no work for a second core "
            f"({num_threads} threads)",
            "RA033",
        )
    return ShardPlan(cores=cores, block=aligned, window_lcm=lcm)


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
