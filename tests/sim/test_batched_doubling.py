"""The batched engine's replay order and eLDST forwarding against loop references.

The engine orders a wave's load stream by counting over a grid of
(load node, inject cycle) pairs keyed by a per-kernel rank of its load
nodes (``_load_ranks``), and resolves
eLDST forwarding forests by pointer doubling: ``_rank_forest`` finds
every row's head and distance once per (communication map, predicate)
and ``_resolve_forest`` runs each node's prefix-maximum rounds over the
stored jumps.  Both replace code whose work grew with key depth or
chain depth; the reference implementations kept here are that code:

* ``_pair_column_order`` ranks every distinct (load node, inject cycle)
  pair with a lexsort over its full event-order key matrix and sorts the
  wave by pair rank, then thread position;
* ``_level_loop`` walks every row's chain to find its depth, then
  propagates values and the event engine's timing recurrence
  ``complete[t] = max(issue[t], complete[src]) + L`` one level at a time.

The new code must match them exactly: the same permutation on every
registry cell whose loads replay in event order (single-core and on
4-core shards, at one replica and at the kernel's own replica count),
and the same values, completion cycles and depth on random forwarding
forests, each ranked once and resolved against several timing draws.
The tables and rankings one simulator shares between nodes must equal
the ones built for each node alone, on every registry cell with
inter-thread nodes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import analyze_kernel
from repro.analyze.passes import pure_load_ancestors
from repro.compiler.pipeline import compile_kernel
from repro.config.system import default_system_config
from repro.graph.opcodes import Opcode
from repro.harness.figures import DEFAULT_SUITE_PARAMS
from repro.kernel.builder import KernelBuilder
from repro.sim import simulate
from repro.sim.batched import BatchedSimulator, _rank_forest, _resolve_forest
from repro.sim.launch import KernelLaunch
from repro.workloads.registry import get_workload, registry_kernels

# ----------------------------------------------------------------- replay order


def _pair_column_order(
    keys: dict, order_pos: dict, nids: list[int], inject: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Reference replay permutation: lexsort of (node, inject) pair keys."""
    n = inject.size
    depth = max(keys[nid][0].size for nid in nids)
    inject_ids = inject.astype(np.int64)
    n_injects = int(inject_ids[-1]) + 1
    shifts = 2.0 * np.arange(n_injects, dtype=np.float64)
    pairs = len(nids) * n_injects
    pair_columns = np.full((depth, pairs), -1.0)
    pair_node = np.empty(pairs)
    for block, nid in enumerate(nids):
        rows = slice(block * n_injects, (block + 1) * n_injects)
        components, moments = keys[nid]
        for j in range(components.size):
            if moments[j]:
                pair_columns[j, rows] = components[j] + shifts
            else:
                pair_columns[j, rows] = components[j]
        pair_node[rows] = float(order_pos[nid])
    pair_order = np.lexsort(tuple([pair_node] + list(pair_columns[::-1])))
    pair_rank = np.empty(pairs, dtype=np.int64)
    pair_rank[pair_order] = np.arange(pairs)
    block_base = np.repeat(np.arange(len(nids), dtype=np.int64) * n_injects, n)
    composite = pair_rank[block_base + np.tile(inject_ids, len(nids))] * n
    composite += np.tile(np.arange(n, dtype=np.int64), len(nids))
    if bool(valid.all()):
        return np.argsort(composite)
    sel = np.flatnonzero(valid)
    return sel[np.argsort(composite[sel])]


def _ordered_cells():
    """Registry cells ``engine="auto"`` runs batched with event-order replay."""
    cells = []
    for workload, variant in registry_kernels():
        launch = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name)).launch(variant)
        compiled = compile_kernel(launch.graph)
        if analyze_kernel(compiled).engine == "event":
            continue
        if pure_load_ancestors(compiled.index) is not None:
            cells.append(pytest.param(workload, variant, id=f"{workload.name}/{variant}"))
    return cells


ORDERED_CELLS = _ordered_cells()


def test_ordered_cells_cover_both_batched_engines():
    names = {param.id for param in ORDERED_CELLS}
    assert "matrixMul/stream" in names and "matrixMul/dmt" in names
    assert not any(name.startswith("spmv/") for name in names)  # RA042


@pytest.mark.parametrize("workload,variant", ORDERED_CELLS)
def test_replay_order_matches_pair_column_lexsort(workload, variant, monkeypatch):
    calls = []
    replay_order = BatchedSimulator._replay_order

    def recording(self, nids, inject, rows):
        slots = replay_order(self, nids, inject, rows)
        n = inject.size
        valid = np.concatenate([np.ones(n, dtype=bool) if r is None else r for r in rows])
        flat = slots.ravel()
        assert np.all(flat[~valid] == -1)
        order = np.full(int(valid.sum()), -1, dtype=np.int64)
        order[flat[valid]] = np.flatnonzero(valid)
        static = self._static
        expected = _pair_column_order(static.load_keys, static.order_pos, nids, inject, valid)
        calls.append((order, expected))
        return slots

    monkeypatch.setattr(BatchedSimulator, "_replay_order", recording)
    default = default_system_config()
    for config in (dataclasses.replace(default, max_graph_replicas=1), default):
        launch = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name)).launch(variant)
        compiled = compile_kernel(launch.graph, config)
        for cores in (None, 4):
            calls.clear()
            result = simulate(compiled, launch, cores=cores)
            assert result.engine in ("batched", "window-batched")
            assert calls, "the wave never replayed its loads"
            for order, expected in calls:
                assert np.array_equal(order, expected)


def _composite_slots(first, rank, ranked, inject, rows):
    """Reference slots: a stable argsort of the one-int64 composite
    ``((first + 2*inject) * L + rank) * n + position``, inverted."""
    n = inject.size
    moment = first[:, None] + 2 * inject.astype(np.int64)
    composite = ((moment * ranked + rank[:, None]) * n + np.arange(n)).ravel()
    valid = np.concatenate([np.ones(n, dtype=bool) if r is None else r for r in rows])
    slots = np.full(composite.size, -1, dtype=np.int64)
    chosen = np.flatnonzero(valid)
    slots[chosen[np.argsort(composite[chosen], kind="stable")]] = np.arange(chosen.size)
    return slots.reshape(len(rows), n)


def test_replay_order_grid_matches_composite_sort():
    """The counting grid gives every row the slot the composite sort
    gives it, on random key components (negative ones too), ranks that
    skip values, replica counts and eLDST-style row masks."""
    from types import SimpleNamespace

    rng = np.random.default_rng(11)
    for _ in range(300):
        blocks = int(rng.integers(1, 10))
        n = int(rng.integers(1, 50))
        ranked = blocks + int(rng.integers(0, 3))
        first = rng.integers(-5, 30, blocks)
        rank = rng.permutation(ranked)[:blocks]
        inject = (np.arange(n) // int(rng.integers(1, 4))).astype(np.float64)
        rows = [None if rng.random() < 0.5 else rng.random(n) < 0.6 for _ in range(blocks)]
        nids = list(range(blocks))
        load_rank = {nid: int(rank[nid]) for nid in nids}
        # Ranked load nodes that are not in this wave.
        load_rank.update({-1 - k: k for k in range(ranked) if k not in rank})
        static = SimpleNamespace(
            load_keys={nid: (np.array([float(first[nid])]), None) for nid in nids},
            load_rank=load_rank,
        )
        got = BatchedSimulator._replay_order(SimpleNamespace(_static=static), nids, inject, rows)
        assert np.array_equal(got, _composite_slots(first, rank, ranked, inject, rows))


def test_registry_sweep_runs_more_than_one_replica():
    """At least one ordered cell replicates, so the composite's shared
    inject cycles (``replicas`` threads per cycle) are exercised."""
    replicas = set()
    for param in ORDERED_CELLS:
        workload, variant = param.values
        launch = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name)).launch(variant)
        replicas.add(compile_kernel(launch.graph).replicas)
    assert max(replicas) > 1


# ----------------------------------------------------------- eLDST forwarding


def _level_loop(
    src_pos: np.ndarray,
    heads: np.ndarray,
    value: np.ndarray,
    head_complete: np.ndarray,
    issue: np.ndarray,
    latency: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference forwarding: chain depth by walking, then level by level."""
    n = heads.size
    dep = np.where(heads, np.int64(-1), src_pos)
    pos = np.zeros(n, dtype=np.int64)
    cursor = dep.copy()
    for _ in range(n + 1):
        active = cursor >= 0
        if not bool(active.any()):
            break
        pos[active] += 1
        cursor[active] = dep[cursor[active]]
    value = value.copy()
    complete = np.empty(n)
    complete[heads] = head_complete[heads] + latency
    depth = int(pos.max(initial=0))
    if depth > 0:
        rows_by_depth = np.argsort(pos, kind="stable")
        bounds = np.cumsum(np.bincount(pos))[:-1]
        for rows in np.split(rows_by_depth, bounds)[1:]:
            src = dep[rows]
            value[rows] = value[src]
            complete[rows] = np.maximum(issue[rows], complete[src]) + latency
    return value, complete, depth


@st.composite
def forwarding_forests(draw):
    """A core's rows of one eLDST map and predicate: a subset of whole
    windows of the launch (non-contiguous, rows optionally shuffled),
    sources ``|δ|`` threads back inside the window and a random heads
    mask on top of the rows without a source; then several independent
    draws of integer issue/load cycles, head values and latency, as the
    nodes sharing that ranking would see."""
    window = draw(st.integers(min_value=1, max_value=24))
    delta = draw(st.integers(min_value=1, max_value=8))
    n_windows = draw(st.integers(min_value=1, max_value=8))
    kept = draw(
        st.lists(st.integers(0, n_windows - 1), min_size=1, max_size=n_windows, unique=True)
    )
    tids = np.concatenate(
        [np.arange(w * window, (w + 1) * window, dtype=np.int64) for w in sorted(kept)]
    )
    if draw(st.booleans()):
        tids = tids[np.array(draw(st.permutations(range(tids.size))), dtype=np.int64)]
    n = tids.size
    row_of = {int(t): row for row, t in enumerate(tids)}
    src = tids - delta
    src_pos = np.array(
        [
            row_of[int(s)] if s >= 0 and s // window == t // window else -1
            for s, t in zip(src, tids)
        ],
        dtype=np.int64,
    )
    predicate = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    heads = predicate | (src_pos < 0)
    timings = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        issue = np.array(
            draw(st.lists(st.integers(0, 400), min_size=n, max_size=n)), dtype=np.float64
        )
        load = np.array(
            draw(st.lists(st.integers(0, 600), min_size=n, max_size=n)), dtype=np.float64
        )
        head_complete = np.where(heads, issue + load, np.nan)
        value = np.where(
            heads, np.array(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))), 0
        ).astype(np.int64)
        latency = float(draw(st.integers(min_value=1, max_value=12)))
        timings.append((value, head_complete, issue, latency))
    return src_pos, heads, timings


@settings(deadline=None, max_examples=300)
@given(forwarding_forests())
def test_forward_chains_match_level_loop(forest):
    src_pos, heads, timings = forest
    ranking = _rank_forest(src_pos, heads)
    assert ranking is not None
    assert bool(heads[ranking.head].all())
    pos, jumps = ranking.pos.copy(), [jump.copy() for jump in ranking.jumps]
    for value, head_complete, issue, latency in timings:
        expected_value, expected_complete, expected_depth = _level_loop(
            src_pos, heads, value, head_complete, issue, latency
        )
        complete = _resolve_forest(ranking, heads, head_complete, issue, latency)
        assert np.array_equal(value[ranking.head], expected_value)
        assert complete.tobytes() == expected_complete.tobytes()
        assert ranking.depth == expected_depth
    # Resolving must leave the shared ranking as it found it.
    assert np.array_equal(ranking.pos, pos)
    assert all(np.array_equal(a, b) for a, b in zip(ranking.jumps, jumps, strict=True))


def test_forward_chains_report_a_chain_without_head():
    src_pos = np.array([1, 2, 0, -1], dtype=np.int64)
    heads = np.array([False, False, False, True])
    assert _rank_forest(src_pos, heads) is None


# ---------------------------------------------------- shared tables and rankings


def _interthread_cells():
    """Registry cells with ELEVATOR or ELDST nodes that run batched."""
    cells = []
    for workload, variant in registry_kernels():
        launch = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name)).launch(variant)
        compiled = compile_kernel(launch.graph)
        if not compiled.graph.nodes_with_opcode(Opcode.ELEVATOR, Opcode.ELDST):
            continue
        if analyze_kernel(compiled).engine != "event":
            cells.append(pytest.param(workload, variant, id=f"{workload.name}/{variant}"))
    return cells


INTERTHREAD_CELLS = _interthread_cells()


def _assert_same_ranking(shared, alone) -> None:
    assert alone is not None, "the shared heads do not root this node's own map"
    assert np.array_equal(shared.head, alone.head)
    assert np.array_equal(shared.pos, alone.pos)
    assert len(shared.jumps) == len(alone.jumps)
    assert all(np.array_equal(a, b) for a, b in zip(shared.jumps, alone.jumps))
    assert shared.depth == alone.depth


def _colliding_maps_launch() -> KernelLaunch:
    """Inter-thread nodes whose maps differ only in ``window`` or only in
    ``src_offset`` (equal linear delta), all on one predicate: a key
    that drops either parameter would hand them one table."""
    b = KernelBuilder("colliding_maps", (4, 8))
    n = 32
    b.global_array("x", n)
    b.global_array("out", n)
    tid = b.thread_idx_linear()
    head = b.thread_idx_x().eq(0)
    loaded = [
        b.from_thread_or_mem("x", tid, head, src_offset=(-1, 0), window=8),
        b.from_thread_or_mem("x", tid, head, src_offset=(3, -1), window=8),
        b.from_thread_or_mem("x", tid, head, src_offset=(-1, 0), window=2),
    ]
    total = loaded[0] + loaded[1] + loaded[2]
    for offset, window in (((1, 0), 8), ((-3, 1), 8), ((1, 0), 2)):
        total = total + b.from_thread_or_const(loaded[0], offset, 0.0, window=window)
    b.store("out", tid, total)
    return KernelLaunch(b.finish(), {"x": np.arange(n) * 0.5})


def _assert_tables_match_per_node(compiled, launch, monkeypatch) -> list:
    """Simulate single-core and on 4 cores; every shared table and
    ranking must equal the one built for its node alone.  Returns the
    simulators of the last run."""
    simulators = []
    rankings = []
    run = BatchedSimulator.run
    forward_ranking = BatchedSimulator._forward_ranking

    def recording_run(self):
        simulators.append(self)
        return run(self)

    def checking_ranking(self, node, heads):
        shared = forward_ranking(self, node, heads)
        alone = self._build_interthread_table(node)
        _assert_same_ranking(shared, _rank_forest(alone.src_pos, heads))
        rankings.append(node.node_id)
        return shared

    monkeypatch.setattr(BatchedSimulator, "run", recording_run)
    monkeypatch.setattr(BatchedSimulator, "_forward_ranking", checking_ranking)
    eldst = compiled.graph.nodes_with_opcode(Opcode.ELDST)
    for cores in (None, 4):
        simulators.clear()
        rankings.clear()
        result = simulate(compiled, launch, cores=cores)
        assert result.engine == "window-batched"
        assert simulators, "no batched core ran"
        for sim in simulators:
            assert sim._it, "the simulator built no inter-thread table"
            for nid, shared in sim._it.items():
                alone = sim._build_interthread_table(compiled.graph.node(nid))
                assert np.array_equal(shared.src_pos, alone.src_pos)
                assert np.array_equal(shared.receives, alone.receives)
                assert shared.forwards == alone.forwards
        assert len(rankings) == len(eldst) * len(simulators)
    return simulators


def test_interthread_cells_cover_the_communicating_kernels():
    names = {param.id for param in INTERTHREAD_CELLS}
    assert {"matrixMul/dmt", "matrixMul/dmt_win", "lud/dmt_win", "reduce/dmt"} <= names


@pytest.mark.parametrize("workload,variant", INTERTHREAD_CELLS)
def test_shared_tables_equal_per_node_tables(workload, variant, monkeypatch):
    launch = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name)).launch(variant)
    _assert_tables_match_per_node(compile_kernel(launch.graph), launch, monkeypatch)


def test_matmul_dmt_shares_two_maps_and_two_rankings(monkeypatch):
    workload = get_workload("matrixMul")
    launch = workload.prepare(DEFAULT_SUITE_PARAMS.get(workload.name)).launch("dmt")
    compiled = compile_kernel(launch.graph)
    assert len(compiled.graph.nodes_with_opcode(Opcode.ELDST)) > 2
    for sim in _assert_tables_match_per_node(compiled, launch, monkeypatch):
        assert len({id(table) for table in sim._it.values()}) == 2
        assert len(sim._rankings) == 2


def test_maps_differing_in_window_or_offset_get_their_own_tables(monkeypatch):
    launch = _colliding_maps_launch()
    compiled = compile_kernel(launch.graph)
    for sim in _assert_tables_match_per_node(compiled, launch, monkeypatch):
        assert len({id(table) for table in sim._it.values()}) == 6
