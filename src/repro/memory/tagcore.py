"""Shared set-associative address math and the batched engines' LRU tag array.

The event-driven engine's caches
(:class:`repro.memory.cache.SetAssociativeCache`) and the batched
engines' vectorised L1 (:mod:`repro.sim.analytic_cache`) must classify
the same line stream identically — the cross-engine fidelity contract
is *exact* L1/L2 miss-count equality on order-stable traces.  That only
holds if both engines share one implementation of the address math and
make the same LRU replacement decision:

* :class:`CacheGeometry` — line/set/bank address arithmetic written with
  plain arithmetic operators so the same methods work on Python ints
  (event engine, one access at a time) and on NumPy arrays (batched
  engine, one wave of accesses at a time).  An address is divided once,
  into its *line index* (``address // line_bytes``); the set, the bank
  and the line's first byte address all derive from that index;
* :class:`LruTagArray` — the vectorised twin of the scalar cache's tag
  state: the same per-set MRU-ordered lines held as ``(num_sets, ways)``
  NumPy arrays, replayed over a whole replay-ordered line stream at
  once.  Each set's LRU state is independent, so the stream is stably
  partitioned per set and cut into same-line runs (every access of a run
  after the first is a guaranteed hit under write-allocate).  The runs
  are walked in synchronous rounds — round ``r`` advances the ``r``-th
  run of *every* set with one vector operation — and classified per run:
  the same hit/victim/victim-dirty decisions the scalar cache makes for
  the run's first access (:class:`TagReplay`).

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
    "span_lengths",
]


def _sort_keys(keys: np.ndarray, upper_bound: "int | None") -> np.ndarray:
    """``keys`` in the narrowest unsigned dtype below ``upper_bound``.

    NumPy's stable argsort radix-sorts keys of 16 bits or fewer, and an
    8-bit key needs one counting pass instead of two.
    """
    if upper_bound is None or upper_bound > 1 << 16:
        return keys
    return keys.astype(np.uint8 if upper_bound <= 1 << 8 else np.uint16, copy=False)


def _span_starts(values: np.ndarray) -> np.ndarray:
    """Positions where each run of equal consecutive ``values`` begins."""
    starts = np.flatnonzero(values[1:] != values[:-1])
    starts += 1
    return np.concatenate((np.zeros(min(values.size, 1), dtype=np.int64), starts))


def span_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """Lengths of the spans that begin at ``starts`` and tile ``total`` positions."""
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = total - starts[-1:]
    return lengths


def group_spans(
    keys: np.ndarray, upper_bound: "int | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable-partition an access stream by an integer key (set or bank).

    Returns ``(order, starts, ends)``: ``order`` permutes the stream so
    equal keys are contiguous while preserving stream order inside each
    group, and ``keys[order][starts[g]:ends[g]]`` is the ``g``-th group.

    ``upper_bound`` (exclusive) lets callers with small non-negative
    keys — set and bank indices — promise a narrow dtype, which switches
    NumPy's stable sort to its much faster radix path.
    """
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    keys = _sort_keys(keys, upper_bound)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = _span_starts(sorted_keys)
    return order, starts, starts + span_lengths(starts, keys.size)


class CacheGeometry:
    """Address arithmetic of a set-associative level (scalar and vector).

    Every method uses only ``//``, ``%`` and ``*``, so its argument may be
    a Python int or a NumPy integer array; the result has the same type.
    The set and the bank are functions of the *line index*
    (:meth:`line_index`), so a caller divides each address once.
    """

    __slots__ = ("line_bytes", "num_sets", "ways")

    def __init__(self, line_bytes: int, num_sets: int, ways: int) -> None:
        self.line_bytes = int(line_bytes)
        self.num_sets = int(num_sets)
        self.ways = int(ways)

    @classmethod
    def from_config(cls, config: CacheConfig) -> "CacheGeometry":
        return cls(config.line_bytes, config.num_sets, config.ways)

    def line_index(self, address):
        """Which line holds ``address``: ``address // line_bytes``."""
        return address // self.line_bytes

    def set_index(self, line_index):
        """Which set a line (given by its line index) maps to."""
        return line_index % self.num_sets

    def bank_index(self, line_index, banks: int):
        """Which of ``banks`` line-interleaved banks services a line index."""
        return line_index % banks


class TagReplay(NamedTuple):
    """Run-level classification of one replayed line stream.

    ``order`` permutes the stream so each set's accesses are contiguous,
    in stream order within the set.  ``run_starts`` indexes that
    set-grouped stream: the positions where a run of consecutive
    same-line accesses of one set begins.  The other fields hold one
    entry per run.  Only a run's first access can miss or evict; every
    later access of the run is a hit.  Under write-no-allocate every run
    is a single access.

    ``line`` is the run's line index.  ``hit`` says whether the run's
    first access hit.  ``victim`` is the line index that access evicted,
    or ``-1``; where it evicted a line, ``victim_dirty`` says whether the
    eviction owes a writeback.
    """

    order: np.ndarray
    run_starts: np.ndarray
    line: np.ndarray
    hit: np.ndarray
    victim: np.ndarray
    victim_dirty: np.ndarray


class LruTagArray:
    """Vectorised per-set twin of the scalar cache's LRU tag state.

    State is ``(num_sets, ways)`` arrays of line indices ordered
    MRU-first per row; invalid ways hold ``-1`` and stay contiguous at
    the LRU end, so an install is always "shift right, insert at column
    0" and the victim of a full set is always column ``ways - 1`` —
    exactly the move-to-back discipline of the scalar cache's per-set
    tags, transposed.

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
    def replay(self, lines: np.ndarray, is_write: "bool | np.ndarray") -> TagReplay:
        """Classify a replay-ordered stream of (non-negative) line indices.

        ``is_write`` is a scalar for a homogeneous stream or a per-access
        boolean vector.  The stream is stably partitioned per set and cut
        into same-line runs under write-allocate (every access after a
        run's first is a guaranteed hit that at most dirties the line);
        the per-set run sequences advance in synchronous rounds, one
        vector step touching the next pending run of every set at once.
        State persists across calls, so replaying a stream in chunks is
        identical to replaying it whole.  The result is per run
        (:class:`TagReplay`); the set partition ``order`` is its only
        stream-length part.
        """
        geometry = self.geometry
        lines = np.asarray(lines, dtype=np.int64)
        n = lines.size
        order = np.argsort(
            _sort_keys(geometry.set_index(lines), geometry.num_sets), kind="stable"
        )
        grouped = lines[order]
        if self.write_allocate:
            # A line maps to one set, so every set boundary is a line change.
            run_starts = _span_starts(grouped)
        else:
            # Under write-no-allocate a missing write leaves the set
            # untouched, so same-line runs do not collapse.
            run_starts = np.arange(n)
        r_lines = grouped[run_starts]
        del grouped
        nruns = run_starts.size
        if np.ndim(is_write) == 0:
            r_wfirst = np.full(nruns, bool(is_write))
            r_wrest = r_wfirst & (span_lengths(run_starts, n) > 1)
        else:
            g_writes = np.asarray(is_write, dtype=bool)[order]
            r_wfirst = g_writes[run_starts]
            r_wrest = np.add.reduceat(g_writes, run_starts, dtype=np.int64) > r_wfirst
            del g_writes
        r_any_write = r_wfirst | r_wrest

        r_hit = np.zeros(nruns, dtype=bool)
        r_victim = np.full(nruns, -1, dtype=np.int64)
        r_vdirty = np.zeros(nruns, dtype=bool)
        if nruns == 0:
            return TagReplay(order, run_starts, r_lines, r_hit, r_victim, r_vdirty)

        # Per-set sequences of runs, longest first, so that the sets
        # still live in round ``rnd`` are the first ``live[rnd]``.
        r_sets = geometry.set_index(r_lines)
        seq_starts = _span_starts(r_sets)
        seq_counts = span_lengths(seq_starts, nruns)
        longest = np.argsort(-seq_counts, kind="stable")
        seq_starts, seq_counts = seq_starts[longest], seq_counts[longest]
        seq_sets = r_sets[seq_starts]
        live = np.searchsorted(-seq_counts, -np.arange(int(seq_counts[0])), side="left")

        ways = geometry.ways
        cols = np.arange(ways)
        state_lines, state_dirty = self._lines, self._dirty
        wb, wa = self.write_back, self.write_allocate
        for rnd, k in enumerate(live.tolist()):
            runs = seq_starts[:k] + rnd
            rows = seq_sets[:k]
            cur = r_lines[runs]
            cur_w = r_wfirst[runs]
            sl = state_lines[rows]
            sd = state_dirty[rows]
            eq = sl == cur[:, None]
            h = eq.any(axis=1)
            depth = np.where(h, eq.argmax(axis=1), ways - 1)
            row_idx = np.arange(k)
            install = ~h if wa else ~h & ~cur_w
            lru_line = sl[:, ways - 1]
            has_victim = install & (lru_line != -1)
            r_hit[runs] = h
            r_victim[runs] = np.where(has_victim, lru_line, -1)
            r_vdirty[runs] = has_victim & sd[:, ways - 1]
            # The new MRU entry's dirty bit: on a hit the run's writes
            # dirty the old entry (write-back only); on a miss the first
            # access installs dirty under write-allocate and the rest of
            # the run are write hits.
            d_front = np.where(
                h,
                sd[row_idx, depth] | (r_any_write[runs] & wb),
                (cur_w & wa) | (r_wrest[runs] & wb),
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
        return TagReplay(order, run_starts, r_lines, r_hit, r_victim, r_vdirty)

    # ----------------------------------------------------------------- queries
    def contains(self, address: int) -> bool:
        index = self.geometry.line_index(int(address))
        return bool((self._lines[self.geometry.set_index(index)] == index).any())
