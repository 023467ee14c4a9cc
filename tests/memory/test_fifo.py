"""The one closed form of the single-server FIFO queue.

:func:`repro.memory.fifo.fifo_starts` times the batched engine's issue
ports, L1 banks and scratchpad banks.  The property below checks it
against the recurrence stepped one job at a time,
``t = max(r, t_prev + service)``, on random group tilings (one group,
many groups, groups of one job, empty groups and an empty stream),
``service`` in {0, 1, 3}, int64 and float64 streams, and idle (``-inf``)
or busy first-free times.  It overwrites ``ready`` in place, which the
walk's memory budget (``tests/sim/test_walk_budget.py``) relies on.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.fifo import fifo_starts


def _stepped(ready, starts, free, service):
    """The recurrence, one job at a time."""
    out = []
    bounds = [*starts, len(ready)]
    for lo, hi, first_free in zip(bounds, bounds[1:], free):
        previous = first_free - service
        for r in ready[lo:hi]:
            previous = max(r, previous + service)
            out.append(previous)
    return out


@st.composite
def _streams(draw):
    sizes = draw(
        st.one_of(
            st.lists(st.integers(1, 40), min_size=1, max_size=1),
            st.lists(st.integers(0, 12), min_size=2, max_size=12),
            st.lists(st.just(1), min_size=1, max_size=20),
        )
    )
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    total = sum(sizes)
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    if dtype is np.int64:
        values = st.integers(0, 200)
        busy = st.integers(0, 300)
    else:
        # Multiples of 1/8: the closed form's ``r ± service·i`` is then
        # exact, and cycles are not all integers.
        values = st.integers(0, 1600).map(lambda v: v / 8)
        busy = st.integers(0, 2400).map(lambda v: v / 8)
    ready = np.array(draw(st.lists(values, min_size=total, max_size=total)), dtype=dtype)
    groups = len(sizes)
    free = draw(st.lists(st.one_of(st.just(-math.inf), busy), min_size=groups, max_size=groups))
    return ready, starts, free


@settings(deadline=None, max_examples=300)
@given(stream=_streams(), service=st.sampled_from([0, 1, 3]))
def test_fifo_starts_matches_the_stepped_recurrence(stream, service):
    ready, starts, free = stream
    want = _stepped(ready.tolist(), starts, free, service)
    served = ready.copy()
    assert fifo_starts(served, starts, free, service) is served  # in place
    assert served.dtype == ready.dtype
    assert served.tolist() == want
