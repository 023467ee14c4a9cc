"""A single DRAM device shared by every simulated core.

The multi-core sharding layer used to give each core a private
:class:`~repro.memory.dram.DramModel`, which let ``cores`` cores enjoy
``cores``-times the paper's DRAM bandwidth.  :class:`SharedDRAM` restores
the two-level model: one banked GDDR5 device whose bank-busy time is a
shared resource, accessed by the cores through per-core
:class:`SharedDramPort` objects.

Every port shares the device's bank timing state — an access issued by one
core occupies the bank for ``bank_busy_cycles`` and delays any other core
that targets the same bank — while traffic counters are kept per port, so
summing the per-core hierarchy stats still yields the total device traffic
exactly once.

Modelling note: the sharded cores are *simulated* sequentially, so a core
simulated later sees the full bank schedule left behind by earlier cores,
while the first core runs uncontended.  Total bank-busy time is conserved,
which makes the aggregate cycle count behave like a bandwidth-saturated
shared device (the effect the paper's evaluation depends on) even though
per-core queueing is first-order rather than cycle-interleaved.  This holds
for both engines alike: the event engine and the batched engine's L2 issue
their DRAM accesses through the same ports onto the same device, so a
sharded run queues the same way on either.
"""

from __future__ import annotations

from repro.config.system import DramConfig
from repro.memory.dram import DramModel, DramStats

__all__ = ["SharedDRAM", "SharedDramPort"]


class SharedDRAM:
    """One :class:`DramModel` with shared timing state and per-core ports."""

    def __init__(self, config: DramConfig, line_bytes: int = 128) -> None:
        self.device = DramModel(config, line_bytes=line_bytes)

    @property
    def stats(self) -> DramStats:
        """Aggregate counters of the device.

        Both engines issue every DRAM access through a port onto the
        device, so the device's counters are the sum of the per-port
        counters.
        """
        return self.device.stats

    def port(self) -> "SharedDramPort":
        """Open a new per-core port onto the shared device."""
        return SharedDramPort(self)


class SharedDramPort:
    """One core's view of a :class:`SharedDRAM`.

    Exposes the same interface as :class:`DramModel` (``access``, ``stats``)
    so a :class:`~repro.memory.hierarchy.MemoryHierarchy`
    can use it as the level below its L2 slice.  Timing goes through the
    shared device — including the queueing caused by the other cores —
    while ``stats`` counts only this port's traffic.
    """

    def __init__(self, shared: SharedDRAM) -> None:
        self._shared = shared
        self.stats = DramStats()

    def access(self, address: int, is_write: bool, cycle: int) -> int:
        """Issue one line-sized access on the shared device."""
        device = self._shared.device
        queued_before = device.stats.queue_cycles
        complete = device.access(address, is_write, cycle)
        self.stats.queue_cycles += device.stats.queue_cycles - queued_before
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return complete
