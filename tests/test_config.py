"""Tests for the Table 2 system configuration."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.system import (
    canonical_config_json,
    config_digest,
)
from repro.config.system import (
    CacheConfig,
    CgraGridConfig,
    DramConfig,
    FermiSmConfig,
    LatencyConfig,
    NocConfig,
    ScratchpadConfig,
    SystemConfig,
    TokenBufferConfig,
    default_system_config,
)
from repro.errors import ConfigurationError


def test_default_configuration_matches_table2():
    config = default_system_config()
    assert config.grid.total_units == 140
    assert config.grid.num_alu == 32
    assert config.grid.num_fpu == 32
    assert config.grid.num_special == 12
    assert config.grid.num_ldst == 32
    assert config.grid.num_control == 16
    assert config.grid.num_split_join == 16
    assert config.token_buffer.entries == 16
    assert config.core_clock_ghz == pytest.approx(1.4)
    assert config.l2_clock_ghz == pytest.approx(0.7)
    assert config.dram_clock_ghz == pytest.approx(0.924)
    assert config.memory.l1.size_bytes == 64 * 1024
    assert config.memory.l1.banks == 32
    assert config.memory.l1.line_bytes == 128
    assert config.memory.l1.ways == 4
    assert config.memory.l2.ways == 16
    assert config.memory.dram.channels == 6
    assert config.memory.dram.banks_per_channel == 16
    assert config.fermi.warp_size == 32


def test_describe_mentions_the_headline_numbers():
    text = default_system_config().describe()
    assert "140" in text and "32 ALUs" in text and "GDDR5" in text


def test_to_dict_round_trips_the_grid():
    data = default_system_config().to_dict()
    assert data["grid"]["rows"] * data["grid"]["cols"] >= data["grid"]["num_alu"]


def test_from_dict_round_trips_through_json():
    config = SystemConfig(cores=4, token_buffer=TokenBufferConfig(entries=8))
    via_json = json.loads(json.dumps(config.to_dict()))
    rebuilt = SystemConfig.from_dict(via_json)
    assert rebuilt == config
    assert isinstance(rebuilt.grid, CgraGridConfig)
    assert isinstance(rebuilt.memory.l1, CacheConfig)
    assert rebuilt.token_buffer.entries == 8
    assert rebuilt.cores == 4


def test_from_dict_rejects_unknown_keys_and_invalid_values():
    data = default_system_config().to_dict()
    data["warp_speed"] = 9
    with pytest.raises(ConfigurationError):
        SystemConfig.from_dict(data)
    bad = default_system_config().to_dict()
    bad["token_buffer"]["entries"] = 0
    with pytest.raises(ConfigurationError):
        SystemConfig.from_dict(bad)


@pytest.mark.parametrize(
    "path,value",
    [
        (("grid", "rows"), "x"),
        (("cores",), None),
        (("cores",), True),
        (("cores",), 2.0),
        (("memory", "l1", "write_back"), 1),
        (("core_clock_ghz",), "fast"),
        (("token_buffer", "entries"), [8]),
    ],
    ids=["str-int", "null-int", "bool-int", "float-int", "int-bool", "str-float", "list-int"],
)
def test_from_dict_rejects_wrong_typed_leaves(path, value):
    data = default_system_config().to_dict()
    *parents, leaf = path
    node = data
    for key in parents:
        node = node[key]
    node[leaf] = value
    with pytest.raises(ConfigurationError, match=leaf):
        SystemConfig.from_dict(data)


def test_from_dict_lets_an_int_fill_a_float():
    data = default_system_config().to_dict()
    data["core_clock_ghz"] = 2
    assert SystemConfig.from_dict(data).core_clock_ghz == 2


def test_config_digest_is_stable_across_processes():
    config = default_system_config()
    assert config_digest(config) == config_digest(config.to_dict()) == config.digest()
    assert config_digest(SystemConfig(cores=2)) != config_digest(config)
    # Key order must not matter: canonical JSON sorts keys.
    shuffled = dict(reversed(list(config.to_dict().items())))
    assert config_digest(shuffled) == config_digest(config)
    script = (
        "from repro.config.system import config_digest, default_system_config;"
        "print(config_digest(default_system_config()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == config_digest(config)


def test_canonical_config_json_has_no_whitespace():
    text = canonical_config_json(default_system_config())
    assert " " not in text and "\n" not in text


def test_grid_must_fit_rectangle():
    with pytest.raises(ConfigurationError):
        CgraGridConfig(rows=2, cols=2).validate()


def test_cache_geometry_validation():
    with pytest.raises(ConfigurationError):
        CacheConfig(name="bad", size_bytes=1000, line_bytes=128, ways=3, banks=1,
                    hit_latency=1).validate()
    assert CacheConfig(name="ok", size_bytes=1024, line_bytes=64, ways=2, banks=2,
                       hit_latency=1).num_sets == 8


def test_component_validation_errors():
    with pytest.raises(ConfigurationError):
        TokenBufferConfig(entries=0).validate()
    with pytest.raises(ConfigurationError):
        NocConfig(hop_latency=-1).validate()
    with pytest.raises(ConfigurationError):
        DramConfig(channels=0).validate()
    with pytest.raises(ConfigurationError):
        ScratchpadConfig(size_bytes=0).validate()
    with pytest.raises(ConfigurationError):
        LatencyConfig(alu=0).validate()
    with pytest.raises(ConfigurationError):
        FermiSmConfig(warp_size=0).validate()
    with pytest.raises(ConfigurationError):
        SystemConfig(core_clock_ghz=0).validate()


def test_fermi_dispatch_cycles():
    fermi = FermiSmConfig()
    assert fermi.dispatch_cycles("alu") == 1
    assert fermi.dispatch_cycles("memory") == 2
    assert fermi.dispatch_cycles("sfu") == 8
    assert fermi.dispatch_cycles("control") == 1


def _read_attributes(tree: ast.AST) -> set[str]:
    """Attribute names ``tree`` reads, outside ``validate`` methods."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "validate":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_config_field_is_read_somewhere():
    """A config field no code reads only changes the cache key: an
    explore sweep over it reruns identical simulations under new
    digests.  Every field of a config dataclass must be read as an
    attribute somewhere in ``src/repro`` outside a ``validate`` method."""
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    config_tree = ast.parse((package / "config" / "system.py").read_text())
    fields = {
        f"{cls.name}.{stmt.target.id}"
        for cls in config_tree.body
        if isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    assert len(fields) > 40
    read: set[str] = set()
    for path in package.rglob("*.py"):
        read |= _read_attributes(ast.parse(path.read_text()))
    unread = sorted(name for name in fields if name.split(".")[1] not in read)
    assert unread == [], f"config fields no code reads: {unread}"
