"""Shared set-associative address math and the batched engines' LRU tag array.

The event-driven engine's caches
(:class:`repro.memory.cache.SetAssociativeCache`) and the batched
engines' vectorised L1 (:mod:`repro.sim.analytic_cache`) must classify
the same line-address stream identically — the cross-engine fidelity
contract is *exact* L1/L2 miss-count equality on order-stable traces.
That only holds if both engines share one implementation of the address
math and make the same LRU replacement decision:

* :class:`CacheGeometry` — line/set/bank address arithmetic written with
  plain arithmetic operators so the same methods work on Python ints
  (event engine, one access at a time) and on NumPy arrays (batched
  engine, one wave of accesses at a time);
* :class:`LruTagArray` — the vectorised twin of the scalar cache's tag
  state: the same per-set MRU-ordered lines held as ``(num_sets, ways)``
  NumPy arrays, replayed over a whole replay-ordered line-address stream
  at once.  Each set's LRU state is independent, so the stream is
  decomposed per set (:func:`group_spans`) and walked in synchronous
  rounds — round ``r`` advances the ``r``-th access of *every* set with
  one vector operation — after collapsing consecutive same-line runs
  (guaranteed hits under write-allocate).  Per access it reports the
  same hit/victim/victim-dirty decisions the scalar cache makes, and it
  hands back the set partition and its runs for callers that work per
  run.

Timing, banks, MSHRs and statistics deliberately stay out of this module.
:class:`~repro.memory.cache.SetAssociativeCache` keeps its own per-set
LRU tags and its cycle-stamped models in ``memory/cache.py``; it is the
event engine's L1 and L2 and the batched engines' L2.  The batched
engines' vectorised L1 (``sim/analytic_cache.py``) runs on
:class:`LruTagArray`.  The equivalence of the two LRU walks is pinned by
the hypothesis sweeps in ``tests/memory/test_tagcore.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.config.system import CacheConfig

__all__ = [
    "CacheGeometry",
    "LruTagArray",
    "TagReplay",
    "group_spans",
]


def group_spans(
    keys: np.ndarray, upper_bound: "int | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable-partition an access stream by an integer key (set or bank).

    Returns ``(order, starts, ends)``: ``order`` permutes the stream so
    equal keys are contiguous while preserving stream order inside each
    group, and ``keys[order][starts[g]:ends[g]]`` is the ``g``-th group.

    ``upper_bound`` (exclusive) lets callers with small keys — set and
    bank indices — promise a narrow dtype, which switches NumPy's stable
    sort to its much faster radix path.
    """
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if upper_bound is not None and upper_bound <= np.iinfo(np.int16).max:
        keys = keys.astype(np.int16, copy=False)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = np.r_[starts[1:], keys.size]
    return order, starts, ends


class CacheGeometry:
    """Address arithmetic of a set-associative level (scalar and vector).

    Every method uses only ``//``, ``%`` and ``*``, so ``address`` may be
    a Python int or a NumPy integer array; the result has the same type.
    """

    __slots__ = ("line_bytes", "num_sets", "ways")

    def __init__(self, line_bytes: int, num_sets: int, ways: int) -> None:
        self.line_bytes = int(line_bytes)
        self.num_sets = int(num_sets)
        self.ways = int(ways)

    @classmethod
    def from_config(cls, config: CacheConfig) -> "CacheGeometry":
        return cls(config.line_bytes, config.num_sets, config.ways)

    def line_address(self, address):
        """First byte address of the line holding ``address``."""
        return address - (address % self.line_bytes)

    def set_index(self, line_addr):
        """Which set a line address maps to."""
        return (line_addr // self.line_bytes) % self.num_sets

    def bank_index(self, line_addr, banks: int):
        """Which of ``banks`` line-interleaved banks services a line address."""
        return (line_addr // self.line_bytes) % banks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheGeometry(line_bytes={self.line_bytes}, "
            f"num_sets={self.num_sets}, ways={self.ways})"
        )


class TagReplay(NamedTuple):
    """Per-access classification of one replayed line-address stream.

    ``victim_line`` is ``-1`` where an access evicted nothing; where it
    did, ``victim_dirty`` says whether the eviction owes a writeback.

    The replay's set partition comes back with it.  ``order`` permutes
    the stream so each set's accesses are contiguous, in stream order
    within the set.  ``run_starts`` indexes that set-grouped stream: the
    positions where a run of consecutive same-line accesses of one set
    begins.  Only a run's first access can miss or evict; under
    write-no-allocate every run is a single access.
    """

    hit: np.ndarray
    victim_line: np.ndarray
    victim_dirty: np.ndarray
    order: np.ndarray
    run_starts: np.ndarray


class LruTagArray:
    """Vectorised per-set twin of the scalar cache's LRU tag state.

    State is ``(num_sets, ways)`` arrays ordered MRU-first per row;
    invalid ways hold line ``-1`` and stay contiguous at the LRU end, so
    an install is always "shift right, insert at column 0" and the
    victim of a full set is always column ``ways - 1`` — exactly the
    move-to-back discipline of the scalar cache's per-set tags, transposed.

    The write policy lives here too: whether a write miss installs
    (write-allocate) and whether a write hit dirties the line (write-back)
    changes which accesses update LRU state, so the replay cannot be
    policy-agnostic.  The equivalence with
    :class:`~repro.memory.cache.SetAssociativeCache` is pinned by the
    hypothesis sweep in ``tests/memory/test_tagcore.py``.
    """

    __slots__ = ("geometry", "write_back", "write_allocate", "_lines", "_dirty")

    def __init__(
        self,
        geometry: CacheGeometry,
        write_back: bool = True,
        write_allocate: bool = True,
    ) -> None:
        self.geometry = geometry
        self.write_back = bool(write_back)
        self.write_allocate = bool(write_allocate)
        self._lines = np.full((geometry.num_sets, geometry.ways), -1, dtype=np.int64)
        self._dirty = np.zeros((geometry.num_sets, geometry.ways), dtype=bool)

    @classmethod
    def from_config(cls, config: CacheConfig) -> "LruTagArray":
        return cls(
            CacheGeometry.from_config(config),
            write_back=config.write_back,
            write_allocate=config.write_allocate,
        )

    # ------------------------------------------------------------------ replay
    def replay(self, line_addrs: np.ndarray, is_write: np.ndarray) -> TagReplay:
        """Classify a replay-ordered stream of (non-negative) line addresses.

        The stream is stably partitioned per set, consecutive same-line
        runs are collapsed under write-allocate (every access after the
        first is a guaranteed hit that at most dirties the line), and the
        compressed per-set streams advance in synchronous rounds: one
        vector step touches the next pending run of every set at once.
        State persists across calls, so replaying a stream in chunks is
        identical to replaying it whole.  The set partition and its run
        starts come back with the classification (:class:`TagReplay`).
        """
        lines = np.asarray(line_addrs, dtype=np.int64)
        writes = np.asarray(is_write, dtype=bool)
        n = lines.size
        hit = np.zeros(n, dtype=bool)
        victim_line = np.full(n, -1, dtype=np.int64)
        victim_dirty = np.zeros(n, dtype=bool)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return TagReplay(hit, victim_line, victim_dirty, empty, empty.copy())

        order, set_starts_g, _ = group_spans(
            self.geometry.set_index(lines), upper_bound=self.geometry.num_sets
        )
        g_lines = lines[order]
        g_writes = writes[order]
        set_first = np.zeros(n, dtype=bool)
        set_first[set_starts_g] = True

        if self.write_allocate:
            run_first = set_first | np.r_[True, g_lines[1:] != g_lines[:-1]]
        else:
            # Under write-no-allocate a missing write leaves the set
            # untouched, so same-line runs do not collapse.
            run_first = np.ones(n, dtype=bool)
        run_starts = np.flatnonzero(run_first)
        nruns = run_starts.size
        r_lines = g_lines[run_starts]
        r_wfirst = g_writes[run_starts]
        write_counts = np.add.reduceat(g_writes, run_starts)
        r_any_write = write_counts > 0
        r_rest_write = write_counts > r_wfirst

        # Per-set sequences of runs: seq_starts/seq_counts index into runs.
        r_setfirst = set_first[run_starts]
        seq_starts = np.flatnonzero(r_setfirst)
        seq_counts = np.r_[seq_starts[1:], nruns] - seq_starts
        seq_sets = self.geometry.set_index(r_lines[seq_starts])

        r_hit = np.zeros(nruns, dtype=bool)
        r_vline = np.full(nruns, -1, dtype=np.int64)
        r_vdirty = np.zeros(nruns, dtype=bool)

        ways = self.geometry.ways
        cols = np.arange(ways)
        state_lines, state_dirty = self._lines, self._dirty
        wb, wa = self.write_back, self.write_allocate
        for rnd in range(int(seq_counts.max())):
            live = seq_counts > rnd
            runs = seq_starts[live] + rnd
            rows = seq_sets[live]
            cur = r_lines[runs]
            cur_w = r_wfirst[runs]
            sl = state_lines[rows]
            sd = state_dirty[rows]
            eq = sl == cur[:, None]
            h = eq.any(axis=1)
            depth = np.where(h, eq.argmax(axis=1), ways - 1)
            row_idx = np.arange(rows.size)
            install = ~h if wa else ~h & ~cur_w
            lru_line = sl[:, ways - 1]
            has_victim = install & (lru_line != -1)
            r_hit[runs] = h
            r_vline[runs] = np.where(has_victim, lru_line, -1)
            r_vdirty[runs] = has_victim & sd[:, ways - 1]
            # The new MRU entry's dirty bit: on a hit the run's writes
            # dirty the old entry (write-back only); on a miss the first
            # access installs dirty under write-allocate and the rest of
            # the run are write hits.
            d_front = np.where(
                h,
                sd[row_idx, depth] | (r_any_write[runs] & wb),
                (cur_w & wa) | (r_rest_write[runs] & wb),
            )
            # Rotate columns 0..depth right by one and insert at the front.
            src = np.where(cols <= depth[:, None], cols - 1, cols)
            np.clip(src, 0, None, out=src)
            new_l = sl[row_idx[:, None], src]
            new_d = sd[row_idx[:, None], src]
            new_l[:, 0] = cur
            new_d[:, 0] = d_front
            changed = h | install
            state_lines[rows[changed]] = new_l[changed]
            state_dirty[rows[changed]] = new_d[changed]

        # Expand runs back to accesses: every non-first access of a run
        # is a guaranteed hit; victims belong to the run's first access.
        g_hit = r_hit[np.cumsum(run_first) - 1]
        g_hit[~run_first] = True
        hit[order] = g_hit
        first_orig = order[run_starts]
        victim_line[first_orig] = r_vline
        victim_dirty[first_orig] = r_vdirty
        return TagReplay(hit, victim_line, victim_dirty, order, run_starts)

    # ----------------------------------------------------------------- queries
    def contains(self, address: int) -> bool:
        line_addr = self.geometry.line_address(int(address))
        row = self._lines[self.geometry.set_index(line_addr)]
        return bool((row == line_addr).any())

    def resident_lines(self) -> int:
        return int((self._lines != -1).sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LruTagArray({self.geometry!r}, resident={self.resident_lines()})"
