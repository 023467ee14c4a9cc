"""Memory budget of one vectorised L1 walk.

``AnalyticMemoryModel.access_batch`` classifies a whole replay-ordered
stream at once, so its transient arrays scale with the stream.  These
pins bound the ``tracemalloc`` peak of one call on a 2^18-access stream,
in bytes per access, under the default memory configuration:

* an L1-sized stream: 512 lines in runs of 32 consecutive words, swept
  16 times, so the first sweep fills the L1 and the others hit;
* a prune-heavy stream: a burst of 230 single-access misses at cycle 0,
  whose fills are all outstanding when the MSHR map passes its prune
  trigger (``4 * mshr_entries`` entries), then runs of 256 accesses over
  1 024 further lines, whose hits merge into their fills.

The walk reads 36.6 and 34.7 B/access on them (NumPy 2.4, Python 3.11);
the bound, ``BYTES_PER_ACCESS``, is that plus 30%.  The run-at-a-time
walk's predecessor, which classified per access and masked hits against
every prune, read 72.6 and 343.7 B/access.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config.system import default_system_config
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.analytic_cache import AnalyticMemoryModel

ACCESSES = 1 << 18
BYTES_PER_ACCESS = 48


def _l1_sized_stream():
    i = np.arange(ACCESSES)
    addresses = (i // 32 % 512) * 128 + (i % 32) * 4
    return addresses, (i // 8).astype(np.float64)


def _prune_heavy_stream():
    burst = 230
    i = np.arange(ACCESSES - burst)
    addresses = np.concatenate([np.arange(burst) * 128, (1000 + i // 256) * 128 + (i % 32) * 4])
    return addresses, np.zeros(ACCESSES)


@pytest.mark.parametrize(
    "stream,misses",
    [(_l1_sized_stream, 512), (_prune_heavy_stream, 230 + 1024)],
    ids=["l1_sized", "prune_heavy"],
)
def test_walk_peak_memory_per_access(stream, misses):
    addresses, cycles = stream()
    model = AnalyticMemoryModel(MemoryHierarchy(default_system_config().memory))
    tracemalloc.start()
    try:
        model.access_batch(addresses, cycles, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.l1_stats.misses == misses
    assert peak / ACCESSES <= BYTES_PER_ACCESS, f"{peak / ACCESSES:.1f} B/access"
