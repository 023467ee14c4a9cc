"""Memory-access coalescing.

A warp (Fermi) or a burst of CGRA load/store tokens touching consecutive
addresses should not generate one DRAM transaction per element.  The
coalescer groups scalar accesses into line-sized transactions exactly the
way the Fermi memory pipeline does: accesses falling in the same
``line_bytes``-aligned segment become one transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Transaction", "coalesce"]


@dataclass(frozen=True)
class Transaction:
    """One line-sized memory transaction produced by the coalescer."""

    line_address: int
    size: int
    lanes: tuple[int, ...]


def coalesce(addresses: Sequence[int | None], line_bytes: int = 128) -> list[Transaction]:
    """Group per-lane byte addresses into line transactions.

    ``addresses`` holds one byte address per lane; ``None`` marks an
    inactive lane.  The result is ordered by line address, and each
    transaction records which lanes it serves (used for statistics and for
    computing per-lane completion times).
    """
    if line_bytes <= 0:
        raise ValueError("line_bytes must be positive")
    grouped: dict[int, list[int]] = {}
    for lane, address in enumerate(addresses):
        if address is None:
            continue
        line = int(address) - (int(address) % line_bytes)
        grouped.setdefault(line, []).append(lane)
    return [
        Transaction(line_address=line, size=line_bytes, lanes=tuple(lanes))
        for line, lanes in sorted(grouped.items())
    ]


def coalescing_efficiency(addresses: Iterable[int | None], line_bytes: int = 128) -> float:
    """Fraction of the ideal (1 transaction) achieved: ``1/num_transactions``.

    Returns 1.0 for an empty or fully-inactive access.
    """
    transactions = coalesce(list(addresses), line_bytes)
    if not transactions:
        return 1.0
    return 1.0 / len(transactions)
