"""Campaign spec expansion: grid x zip sweeps, overrides, point identity."""

import json

import pytest

from repro.config.system import default_system_config
from repro.errors import ExplorationError
from repro.explore.spec import CampaignSpec, RunPoint, apply_override


def test_grid_axes_cross_and_zip_axes_lockstep():
    spec = CampaignSpec(
        name="both",
        workloads=("matrixMul",),
        grid=(("token_buffer.entries", (8, 16)), ("cores", (1, 2))),
        zipped=(("grid.rows", (10, 12)), ("grid.cols", (14, 12))),
    )
    combos = spec.override_combos()
    # 2 x 2 grid combinations, each crossed with 2 zip rows.
    assert len(combos) == 8
    assert all(len(combo) == 4 for combo in combos)
    # Zip axes never mix: rows=10 always pairs with cols=14.
    for combo in combos:
        values = dict(combo)
        assert (values["grid.rows"], values["grid.cols"]) in ((10, 14), (12, 12))


def test_expand_multiplies_workloads_variants_seeds():
    spec = CampaignSpec(
        name="mul",
        workloads=("matrixMul", "convolution"),
        variants=("mt", "dmt"),
        seeds=(0, 1),
        grid=(("token_buffer.entries", (8, 16, 32)),),
    )
    points = spec.expand()
    assert len(points) == 2 * 2 * 2 * 3
    assert len({p.key() for p in points}) == len(points)


def test_duplicate_swept_path_rejected():
    with pytest.raises(ExplorationError):
        CampaignSpec(
            name="dup",
            workloads=("matrixMul",),
            grid=(("cores", (1, 2)),),
            zipped=(("cores", (4, 8)),),
        )
    with pytest.raises(ExplorationError):
        CampaignSpec(
            name="dup-grid",
            workloads=("matrixMul",),
            grid=(("cores", (1, 2)), ("cores", (4,))),
        )


def test_payload_carries_overrides():
    spec = CampaignSpec(
        name="payload",
        workloads=("matrixMul",),
        grid=(("token_buffer.entries", (8,)),),
    )
    (point,) = spec.expand()
    payload = point.payload()
    assert payload["overrides"] == {"token_buffer.entries": 8}
    assert payload["config"]["token_buffer"]["entries"] == 8


def test_zip_axes_must_have_equal_lengths():
    with pytest.raises(ExplorationError):
        CampaignSpec(
            name="bad",
            workloads=("matrixMul",),
            zipped=(("grid.rows", (10, 12)), ("grid.cols", (14,))),
        )


def test_unknown_workload_variant_engine_rejected():
    with pytest.raises(ExplorationError):
        CampaignSpec(name="w", workloads=("nope",))
    with pytest.raises(ExplorationError):
        CampaignSpec(name="v", workloads=("matrixMul",), variants=("warp",))
    with pytest.raises(ExplorationError):
        CampaignSpec(name="e", workloads=("matrixMul",), engines=("fast",))
    # scan's recurrence spans the block, so it has no windowed dMT build.
    with pytest.raises(ExplorationError, match="'scan' has no variant 'dmt_win'"):
        CampaignSpec.from_dict({"name": "s", "workloads": ["scan"], "variants": ["dmt_win"]})


@pytest.mark.parametrize("axis", ["workloads", "variants", "engines", "seeds"])
def test_an_empty_axis_is_rejected(axis):
    """An empty list would expand to no points, and its params (here a
    bad one) would never be checked."""
    data = {"name": "empty", "workloads": ["matrixMul"], "params": {"matrixMul": {"dim": -1}}}
    with pytest.raises(ExplorationError, match=f"lists no {axis}"):
        CampaignSpec.from_dict({**data, axis: []})


def test_apply_override_rejects_unknown_paths():
    data = default_system_config().to_dict()
    apply_override(data, "token_buffer.entries", 8)
    assert data["token_buffer"]["entries"] == 8
    apply_override(data, "cores", 4)
    assert data["cores"] == 4
    with pytest.raises(ExplorationError):
        apply_override(data, "token_buffer.depth", 8)
    with pytest.raises(ExplorationError):
        apply_override(data, "warp.size", 32)
    with pytest.raises(ExplorationError):
        apply_override(data, "memory.l1", {})  # a group, not a field


def test_point_key_is_order_independent_and_config_sensitive():
    a = RunPoint(
        workload="matrixMul",
        variant="dmt",
        overrides=(("cores", 2), ("token_buffer.entries", 8)),
    )
    b = RunPoint(
        workload="matrixMul",
        variant="dmt",
        overrides=(("token_buffer.entries", 8), ("cores", 2)),
    )
    # Frozen dataclass equality is positional, but keys are canonical.
    assert a.key() == b.key()
    c = RunPoint(workload="matrixMul", variant="dmt", overrides=(("cores", 4),))
    assert a.key() != c.key()
    assert a.key() != RunPoint(workload="matrixMul", variant="dmt", seed=1).key()


def test_spec_round_trips_through_json_file(tmp_path):
    data = {
        "name": "file-spec",
        "workloads": ["reduce"],
        "variants": ["dmt"],
        "seeds": [0, 7],
        "params": {"reduce": {"n": 128, "window": 32}},
        "sweep": {"grid": {"memory.dram.access_latency": [110, 220]}},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    spec = CampaignSpec.from_file(path)
    assert spec.name == "file-spec"
    assert len(spec.expand()) == 4
    with pytest.raises(ExplorationError):
        CampaignSpec.from_file(tmp_path / "missing.json")
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(ExplorationError):
        CampaignSpec.from_file(tmp_path / "broken.json")


def test_key_hashes_resolved_workload_defaults(monkeypatch):
    from repro.workloads.matmul import MatmulWorkload

    implicit = RunPoint(workload="matrixMul", variant="dmt")
    explicit = RunPoint(
        workload="matrixMul",
        variant="dmt",
        params=tuple(sorted(MatmulWorkload().default_params().items())),
    )
    # Spelling out the defaults is the same experiment: same cache entry.
    before = implicit.key()
    assert explicit.key() == before
    # Changing a workload default must be a cache miss, not a stale hit.
    monkeypatch.setattr(MatmulWorkload, "default_params", lambda self: {"dim": 99})
    assert implicit.key() != before


def test_param_typos_fail_at_spec_time():
    with pytest.raises(ExplorationError):
        CampaignSpec(
            name="typo",
            workloads=("matrixMul",),
            params={"matrixMul": {"dmi": 4}},
        )


def test_from_dict_rejects_malformed_shapes():
    base = {"name": "x", "workloads": ["matrixMul"]}
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({**base, "workloads": "matrixMul"})
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({**base, "seeds": ["a"]})
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({**base, "seeds": 3})
    for seed in (-5, 1.9, True, "1"):
        with pytest.raises(ExplorationError, match="seed must be an int of at least 0"):
            CampaignSpec.from_dict({**base, "seeds": [seed]})
        with pytest.raises(ExplorationError, match="seed must be an int of at least 0"):
            CampaignSpec(name="x", workloads=("matrixMul",), seeds=(seed,))
    with pytest.raises(ExplorationError, match="'auto', 'event'"):
        CampaignSpec.from_dict({**base, "engines": ["batched"]})
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({**base, "params": {"matrixMul": [1, 2]}})
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({**base, "base_config": "fast"})
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({**base, "sweep": {"grid": {"cores": [1, 1]}}})


def test_spec_rejects_unknown_keys():
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({"name": "x", "workloads": ["matrixMul"], "sweeps": {}})
    with pytest.raises(ExplorationError):
        CampaignSpec.from_dict({"name": "x", "workloads": ["matrixMul"], "sweep": {"cross": {}}})


def test_base_config_merges_under_overrides():
    spec = CampaignSpec(
        name="base",
        workloads=("matrixMul",),
        base_config={"noc": {"hop_latency": 3}},
        grid=(("token_buffer.entries", (8,)),),
    )
    (point,) = spec.expand()
    config = point.config()
    assert config.noc.hop_latency == 3
    assert config.token_buffer.entries == 8
