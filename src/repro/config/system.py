"""System configuration for the dMT-CGRA reproduction (paper Table 2).

The defaults reproduce Table 2 of the paper:

======================  =====================================================
Parameter               Value
======================  =====================================================
dMT-CGRA core           140 interconnected compute/LDST/control units
Arithmetic units        32 ALUs
Floating point units    32 FPUs, 12 special compute units
Load/Store units        32 LDST units
Control units           16 split/join units, 16 control/elevator units
Frequency               core 1.4 GHz, interconnect 1.4 GHz,
                        L2 0.7 GHz, DRAM 0.924 GHz
L1                      64 KB, 32 banks, 128 B/line, 4-way
L2                      786 KB, 6 banks, 128 B/line, 16-way
GDDR5 DRAM              16 banks, 6 channels
======================  =====================================================

The Fermi streaming-multiprocessor baseline mirrors the GTX480 SM used by
the paper's GPGPU-Sim configuration (32 CUDA cores, 48 KB shared memory,
two warp schedulers, 48 resident warps).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field, asdict
from typing import Any, Mapping, get_type_hints

from repro.errors import ConfigurationError

__all__ = [
    "CgraGridConfig",
    "TokenBufferConfig",
    "NocConfig",
    "CacheConfig",
    "DramConfig",
    "ScratchpadConfig",
    "MemorySystemConfig",
    "FermiSmConfig",
    "LatencyConfig",
    "SystemConfig",
    "canonical_config_json",
    "config_digest",
    "default_system_config",
]


@functools.cache
def _field_types(cls: type) -> tuple[dict[str, Any], frozenset[str]]:
    """Resolved field type hints and field names of a config dataclass."""
    return get_type_hints(cls), frozenset(f.name for f in dataclasses.fields(cls))


def _dataclass_from_dict(cls: type, data: Mapping[str, Any]) -> Any:
    """Reconstruct a (possibly nested) config dataclass from a plain dict.

    The inverse of :func:`dataclasses.asdict`: every field whose declared
    type is itself one of the config dataclasses is rebuilt recursively.
    Unknown keys are rejected so a digest is never computed over silently
    dropped configuration.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{cls.__name__}: expected a mapping, got {type(data).__name__}"
        )
    hints, field_names = _field_types(cls)
    unknown = set(data) - field_names
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__}: unknown configuration key(s) {sorted(unknown)}"
        )
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        hint = hints.get(name)
        if dataclasses.is_dataclass(hint):
            kwargs[name] = _dataclass_from_dict(hint, value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:  # e.g. a required field is missing
        raise ConfigurationError(f"{cls.__name__}: {exc}") from exc


@dataclass(frozen=True)
class CgraGridConfig:
    """Functional-unit inventory and physical arrangement of one CGRA core.

    The paper's core has 140 units (Table 2).  The grid is arranged as a
    ``rows x cols`` rectangle for placement and XY routing purposes; the
    default 10x14 arrangement holds exactly 140 units.
    """

    rows: int = 10
    cols: int = 14
    num_alu: int = 32
    num_fpu: int = 32
    num_special: int = 12
    num_ldst: int = 32
    num_split_join: int = 16
    num_control: int = 16

    @property
    def total_units(self) -> int:
        return (
            self.num_alu
            + self.num_fpu
            + self.num_special
            + self.num_ldst
            + self.num_split_join
            + self.num_control
        )

    def validate(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigurationError("grid dimensions must be positive")
        if self.total_units > self.rows * self.cols:
            raise ConfigurationError(
                f"{self.total_units} functional units do not fit in a "
                f"{self.rows}x{self.cols} grid"
            )
        for name in (
            "num_alu",
            "num_fpu",
            "num_special",
            "num_ldst",
            "num_split_join",
            "num_control",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class TokenBufferConfig:
    """Per-unit token buffer used for tagged-token matching.

    ``entries`` is the number of thread slots each unit can hold; the paper
    uses 16-entry buffers and shows (Fig. 5) that this covers 87% of the
    observed transmission distances without cascading.
    """

    entries: int = 16
    max_in_flight_threads: int = 64

    def validate(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError("token buffer must have at least one entry")
        if self.max_in_flight_threads <= 0:
            raise ConfigurationError("max_in_flight_threads must be positive")


@dataclass(frozen=True)
class NocConfig:
    """Statically routed network-on-chip parameters."""

    hop_latency: int = 1
    link_bandwidth_tokens: int = 2
    injection_latency: int = 1

    def validate(self) -> None:
        if self.hop_latency < 0:
            raise ConfigurationError("hop_latency must be non-negative")
        if self.link_bandwidth_tokens <= 0:
            raise ConfigurationError("link_bandwidth_tokens must be positive")


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    ways: int
    banks: int
    hit_latency: int
    write_back: bool = True
    write_allocate: bool = True
    mshr_entries: int = 32

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ConfigurationError(f"{self.name}: sizes must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigurationError(
                f"{self.name}: size must be a multiple of line_bytes * ways"
            )
        if self.banks <= 0:
            raise ConfigurationError(f"{self.name}: banks must be positive")
        if self.hit_latency < 1:
            raise ConfigurationError(f"{self.name}: hit latency must be >= 1")


@dataclass(frozen=True)
class DramConfig:
    """GDDR5-like DRAM timing model (banked, multi-channel)."""

    channels: int = 6
    banks_per_channel: int = 16
    access_latency: int = 220
    burst_bytes: int = 128
    bank_busy_cycles: int = 8

    def validate(self) -> None:
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise ConfigurationError("DRAM channels/banks must be positive")
        if self.access_latency < 1:
            raise ConfigurationError("DRAM access latency must be >= 1")


@dataclass(frozen=True)
class ScratchpadConfig:
    """Shared-memory scratchpad used by the Fermi and MT-CGRA baselines."""

    size_bytes: int = 48 * 1024
    banks: int = 32
    access_latency: int = 24
    bank_conflict_penalty: int = 1

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("scratchpad size must be positive")
        if self.banks <= 0:
            raise ConfigurationError("scratchpad banks must be positive")


@dataclass(frozen=True)
class MemorySystemConfig:
    """The full memory hierarchy shared by all simulated architectures."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1",
            size_bytes=64 * 1024,
            line_bytes=128,
            ways=4,
            banks=32,
            hit_latency=28,
            write_back=True,
            write_allocate=True,
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2",
            size_bytes=768 * 1024,
            line_bytes=128,
            ways=16,
            banks=6,
            hit_latency=90,
            write_back=True,
            write_allocate=True,
        )
    )
    dram: DramConfig = field(default_factory=DramConfig)
    scratchpad: ScratchpadConfig = field(default_factory=ScratchpadConfig)

    def validate(self) -> None:
        self.l1.validate()
        self.l2.validate()
        self.dram.validate()
        self.scratchpad.validate()

    def sliced(self, cores: int) -> "MemorySystemConfig":
        """Per-core slice of this memory system for multi-core sharding.

        Each core keeps a private L1 but only a ``1/cores`` slice of the
        shared L2 (rounded down to a whole number of sets, never below
        one set); the DRAM configuration is returned unchanged because the
        device itself is shared across cores (see
        :class:`repro.memory.shared_dram.SharedDRAM`).
        """
        if cores <= 1:
            return self
        set_bytes = self.l2.line_bytes * self.l2.ways
        slice_bytes = max(set_bytes, (self.l2.size_bytes // cores) // set_bytes * set_bytes)
        from dataclasses import replace

        sliced = replace(self, l2=replace(self.l2, size_bytes=slice_bytes))
        sliced.validate()
        return sliced


@dataclass(frozen=True)
class FermiSmConfig:
    """Fermi-like streaming multiprocessor baseline (one GTX480 SM)."""

    warp_size: int = 32
    max_resident_warps: int = 48
    schedulers: int = 2
    issue_width_per_scheduler: int = 1
    cuda_cores: int = 32
    sfu_units: int = 4
    ldst_units: int = 16
    registers_per_thread: int = 32
    alu_latency: int = 10
    fpu_latency: int = 10
    sfu_latency: int = 20
    shared_mem_latency: int = 24
    l1_write_through: bool = True

    def validate(self) -> None:
        if self.warp_size <= 0:
            raise ConfigurationError("warp size must be positive")
        if self.max_resident_warps <= 0:
            raise ConfigurationError("max_resident_warps must be positive")
        if self.schedulers <= 0 or self.issue_width_per_scheduler <= 0:
            raise ConfigurationError("scheduler parameters must be positive")
        if self.cuda_cores <= 0 or self.sfu_units <= 0 or self.ldst_units <= 0:
            raise ConfigurationError("execution unit counts must be positive")

    def dispatch_cycles(self, latency_class: str) -> int:
        """Cycles a warp instruction occupies its execution pipe.

        A 32-lane warp instruction is dispatched over the SM's execution
        units of that class (32 CUDA cores, 16 LD/ST units, 4 SFUs on
        Fermi), which bounds the per-class instruction throughput.
        """
        per_class = {
            "alu": self.cuda_cores,
            "sfu": self.sfu_units,
            "memory": self.ldst_units,
            "shared": self.ldst_units,
        }
        units = per_class.get(latency_class)
        if units is None:
            return 1
        return max(1, (self.warp_size + units - 1) // units)


@dataclass(frozen=True)
class LatencyConfig:
    """Pipeline latencies of CGRA functional units (cycles)."""

    alu: int = 1
    fpu: int = 4
    special: int = 12
    control: int = 1
    split_join: int = 1
    elevator: int = 1
    ldst_issue: int = 1

    def validate(self) -> None:
        for name in ("alu", "fpu", "special", "control", "split_join", "elevator"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"latency {name} must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundling every simulated subsystem.

    ``core_clock_ghz`` etc. reproduce the Table 2 clock domains; they are
    used by the power model to convert leakage power into energy.
    """

    grid: CgraGridConfig = field(default_factory=CgraGridConfig)
    token_buffer: TokenBufferConfig = field(default_factory=TokenBufferConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemorySystemConfig = field(default_factory=MemorySystemConfig)
    fermi: FermiSmConfig = field(default_factory=FermiSmConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    core_clock_ghz: float = 1.4
    interconnect_clock_ghz: float = 1.4
    l2_clock_ghz: float = 0.7
    dram_clock_ghz: float = 0.924
    max_graph_replicas: int = 8
    #: Number of simulated CGRA cores a launch may be sharded across.  The
    #: paper evaluates a single core (one thread block per core); values
    #: above 1 enable the window-aligned multi-core sharding of
    #: :mod:`repro.sim.multicore`.
    cores: int = 1
    #: Multi-core memory model: when True (the default) the cores share one
    #: DRAM device whose bandwidth is contended across cores and each core
    #: gets a private ``1/cores`` L2 slice; when False every core keeps the
    #: legacy private L2 + private DRAM of the one-block-per-core model.
    shared_dram: bool = True

    def validate(self) -> "SystemConfig":
        self.grid.validate()
        self.token_buffer.validate()
        self.noc.validate()
        self.memory.validate()
        self.fermi.validate()
        self.latency.validate()
        if self.core_clock_ghz <= 0:
            raise ConfigurationError("core clock must be positive")
        if self.max_graph_replicas < 1:
            raise ConfigurationError("max_graph_replicas must be >= 1")
        if self.cores < 1:
            raise ConfigurationError("cores must be >= 1")
        return self

    def to_dict(self) -> dict[str, Any]:
        """Return the configuration as a nested dictionary (Table 2 dump)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemConfig":
        """Rebuild a validated :class:`SystemConfig` from :meth:`to_dict` output.

        The round-trip is exact — ``SystemConfig.from_dict(cfg.to_dict())
        == cfg`` — and survives a JSON serialisation in between, which is
        what lets campaign specs and result caches treat configurations as
        plain data.  Unknown keys raise :class:`ConfigurationError`.
        """
        config = _dataclass_from_dict(cls, data)
        return config.validate()

    def digest(self) -> str:
        """Stable SHA-256 over the canonical JSON form of this configuration."""
        return config_digest(self)

    def describe(self) -> str:
        """Render a human-readable Table 2-style configuration summary."""
        g = self.grid
        m = self.memory
        lines = [
            "dMT-CGRA system configuration (paper Table 2)",
            f"  dMT-CGRA core       : {g.total_units} interconnected units "
            f"({g.rows}x{g.cols} grid)",
            f"  Arithmetic units    : {g.num_alu} ALUs",
            f"  Floating point units: {g.num_fpu} FPUs, {g.num_special} special compute units",
            f"  Load/Store units    : {g.num_ldst} LDST units",
            f"  Control units       : {g.num_split_join} split/join units, "
            f"{g.num_control} control/elevator units",
            f"  Token buffer        : {self.token_buffer.entries} entries/unit",
            f"  Frequency [GHz]     : core {self.core_clock_ghz}, "
            f"interconnect {self.interconnect_clock_ghz}, "
            f"L2 {self.l2_clock_ghz}, DRAM {self.dram_clock_ghz}",
            f"  L1                  : {m.l1.size_bytes // 1024}KB, {m.l1.banks} banks, "
            f"{m.l1.line_bytes}B/line, {m.l1.ways}-way",
            f"  L2                  : {m.l2.size_bytes // 1024}KB, {m.l2.banks} banks, "
            f"{m.l2.line_bytes}B/line, {m.l2.ways}-way",
            f"  GDDR5 DRAM          : {m.dram.banks_per_channel} banks, "
            f"{m.dram.channels} channels",
            f"  Fermi SM baseline   : {self.fermi.warp_size}-wide, "
            f"{self.fermi.max_resident_warps} resident warps, "
            f"{m.scratchpad.size_bytes // 1024}KB shared memory",
        ]
        return "\n".join(lines)


def canonical_config_json(config: "SystemConfig | Mapping[str, Any]") -> str:
    """Canonical JSON form of a configuration (sorted keys, no whitespace).

    Canonicalisation makes the serialisation independent of dict insertion
    order and of the process that produced it, so digests computed in
    different worker processes (or on different days) agree byte for byte.
    """
    data = config.to_dict() if isinstance(config, SystemConfig) else config
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_digest(config: "SystemConfig | Mapping[str, Any]") -> str:
    """Stable SHA-256 hex digest of a configuration (object or dict form)."""
    return hashlib.sha256(canonical_config_json(config).encode("utf-8")).hexdigest()


def default_system_config() -> SystemConfig:
    """Return the validated default (Table 2) configuration."""
    return SystemConfig().validate()
