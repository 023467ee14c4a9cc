"""Execution statistics shared by the CGRA simulators.

The power model (``repro.power``) converts these counters into energy, and
the analysis layer (``repro.analysis``) turns them into the Figure 11/12
comparisons, so the field names here are the vocabulary of the whole
evaluation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ExecutionStats"]


@dataclass
class ExecutionStats:
    """Counters collected while executing one kernel on one core."""

    cycles: int = 0
    threads: int = 0

    # Functional-unit activity.
    alu_ops: int = 0
    fpu_ops: int = 0
    special_ops: int = 0
    control_ops: int = 0
    split_join_ops: int = 0

    # Memory activity (global memory goes through the hierarchy whose own
    # counters are merged in separately by the harness).
    global_loads: int = 0
    global_stores: int = 0
    scratch_loads: int = 0
    scratch_stores: int = 0

    # Inter-thread communication (dMT-CGRA).
    elevator_retags: int = 0
    elevator_constants: int = 0
    eldst_forwards: int = 0
    eldst_memory_loads: int = 0
    spilled_tokens: int = 0
    lvc_accesses: int = 0

    # Synchronisation (baselines).
    barrier_arrivals: int = 0
    barrier_wait_cycles: int = 0

    # Interconnect.
    tokens_sent: int = 0
    noc_hops: int = 0

    # Token matching.
    token_buffer_inserts: int = 0
    token_buffer_matches: int = 0

    # GPGPU-specific counters (filled by the Fermi simulator, zero for CGRA).
    instructions_issued: int = 0
    instructions_per_lane: int = 0
    register_reads: int = 0
    register_writes: int = 0

    #: Free-form counters; values are usually numeric, but annotations such
    #: as ``shard_fallback_reason`` may carry strings.
    extra: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ helpers
    def bump(self, name: str, amount: int | float | str = 1) -> None:
        """Increment a named counter (core field or ``extra``).

        Non-numeric values (annotations like ``shard_fallback_reason``)
        are stored last-writer-wins instead of summed.
        """
        if hasattr(self, name) and name != "extra":
            setattr(self, name, getattr(self, name) + amount)
        elif isinstance(amount, (int, float)):
            current = self.extra.get(name, 0)
            self.extra[name] = (current if isinstance(current, (int, float)) else 0) + amount
        else:
            self.extra[name] = amount

    @property
    def compute_ops(self) -> int:
        return self.alu_ops + self.fpu_ops + self.special_ops

    def as_dict(self) -> dict[str, int | float]:
        out: dict[str, int | float] = {
            name: getattr(self, name)
            for name in (
                "cycles",
                "threads",
                "alu_ops",
                "fpu_ops",
                "special_ops",
                "control_ops",
                "split_join_ops",
                "global_loads",
                "global_stores",
                "scratch_loads",
                "scratch_stores",
                "elevator_retags",
                "elevator_constants",
                "eldst_forwards",
                "eldst_memory_loads",
                "spilled_tokens",
                "lvc_accesses",
                "barrier_arrivals",
                "barrier_wait_cycles",
                "tokens_sent",
                "noc_hops",
                "token_buffer_inserts",
                "token_buffer_matches",
                "instructions_issued",
                "instructions_per_lane",
                "register_reads",
                "register_writes",
            )
        }
        out.update(self.extra)
        return out

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Combine the stats of two cores running in parallel.

        Counters are summed element-wise without coercion, so float-valued
        ``extra`` counters (e.g. merged in from the memory hierarchy) keep
        their fractional part.  ``cycles`` takes the maximum (the cores run
        concurrently); every other numeric counter, ``threads`` and
        ``instructions_per_lane`` included, is a volume and is summed.
        """
        merged = ExecutionStats()
        for name, value in self.as_dict().items():
            merged.bump(name, value)
        for name, value in other.as_dict().items():
            merged.bump(name, value)
        merged.cycles = max(self.cycles, other.cycles)
        return merged
