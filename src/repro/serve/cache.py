"""The server's memoisation tiers: kernel LRU and single-flight table.

Three layers make repeat traffic O(lookup):

1. the **persistent record store** — the explore subsystem's
   content-addressed JSONL :class:`~repro.explore.cache.ResultCache`,
   shared verbatim (same directory, same schema), so campaigns pre-warm
   the server and served traffic back-fills campaigns;
2. the **in-process kernel LRU** (:class:`KernelLRU`) holding the
   ``/v1/compile`` payload of each compiled kernel, keyed by
   ``kernel digest + config digest`` — compilation is pure w.r.t. those
   identities, so a bounded map of the hottest kernels answers repeat
   ``/v1/compile`` traffic without touching the compiler;
3. the **single-flight table** (:class:`SingleFlight`) collapsing N
   concurrent identical requests into one simulation — the classic
   thundering-herd guard: the first request runs, the other N-1 await
   its future and are answered from the same record.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Awaitable, Callable

__all__ = ["KernelLRU", "SingleFlight"]


class KernelLRU:
    """Bounded least-recently-used map (used for compile payloads).

    Not thread-safe by design: the server only touches it from the event
    loop.  ``hits``/``misses`` feed ``GET /v1/stats``.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Any | None:
        """Return the cached value (refreshing its recency) or ``None``."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert or refresh one entry, evicting the coldest past capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class SingleFlight:
    """Deduplicate concurrent async work by key (one flight per key).

    :meth:`run` either starts ``factory`` (first caller for the key) or
    awaits the in-flight future (every concurrent duplicate).  The check
    is synchronous with respect to the event loop, so there is no window
    in which two callers can both decide to start the work.
    """

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._inflight)

    async def run(
        self, key: str, factory: Callable[[], Awaitable[Any]]
    ) -> tuple[Any, bool]:
        """Return ``(result, coalesced)`` for ``key``.

        ``coalesced`` is ``True`` when this call piggybacked on an
        already-running flight instead of executing ``factory`` itself.
        A failing factory propagates its exception to every waiter.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return await asyncio.shield(existing), True
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Late joiners must never crash on an orphaned exception: mark the
        # future's exception as retrieved even when no duplicate awaited it.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = future
        try:
            result = await factory()
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result(result)
            return result, False
        finally:
            del self._inflight[key]
