"""Configuration dataclasses for caches, timing and the simulated CMP.

All configs are frozen dataclasses that validate eagerly in
``__post_init__`` and raise :class:`~repro.common.errors.ConfigError` on
inconsistency, so a bad geometry can never reach the simulator.

Two preset system configurations are provided:

* :func:`paper_system_config` — the paper's machine scaled down by 4x in
  LLC capacity (Python trace simulation cannot afford the full 1 MB/core
  LLC at useful trace lengths; see DESIGN.md, "Substitutions").
* :func:`tiny_system_config` — a very small machine for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.common.addr import is_power_of_two
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache level.

    Attributes:
        size_bytes: total capacity in bytes.
        block_bytes: line size in bytes (power of two).
        ways: associativity.
    """

    size_bytes: int
    block_bytes: int
    ways: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.block_bytes):
            raise ConfigError(f"block_bytes must be a power of two, got {self.block_bytes}")
        if self.ways <= 0:
            raise ConfigError(f"ways must be positive, got {self.ways}")
        if self.size_bytes <= 0:
            raise ConfigError(f"size_bytes must be positive, got {self.size_bytes}")
        if self.size_bytes % (self.block_bytes * self.ways) != 0:
            raise ConfigError(
                f"size {self.size_bytes} is not divisible by ways*block "
                f"({self.ways}*{self.block_bytes})"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigError(f"num_sets must be a power of two, got {self.num_sets}")

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, block size and associativity."""
        return self.size_bytes // (self.block_bytes * self.ways)

    @property
    def num_lines(self) -> int:
        """Total number of line slots in the cache."""
        return self.num_sets * self.ways

    def scaled(self, factor: int) -> "CacheGeometry":
        """Return the same geometry with ``factor``-times the sets."""
        return replace(self, size_bytes=self.size_bytes * factor)


@dataclass(frozen=True)
class LatencyConfig:
    """Fixed access latencies (cycles) for the timing model.

    The simulator charges a core the latency of the deepest level that
    serviced its access; latencies are end-to-end, not additive per level.
    """

    l1_hit: int = 1
    l2_hit: int = 10
    llc_hit: int = 30
    memory: int = 250

    def __post_init__(self) -> None:
        ordered = (self.l1_hit, self.l2_hit, self.llc_hit, self.memory)
        if any(lat <= 0 for lat in ordered):
            raise ConfigError(f"latencies must be positive, got {ordered}")
        if list(ordered) != sorted(ordered):
            raise ConfigError(f"latencies must be monotonically increasing, got {ordered}")


@dataclass(frozen=True)
class NUcacheConfig:
    """Parameters of the NUcache organization and its PC selector.

    Attributes:
        deli_ways: number of ways per set reserved as DeliWays.  The
            remaining ``llc.ways - deli_ways`` are MainWays.
        num_candidate_pcs: size of the candidate pool (the top miss-causing
            PCs considered by the selector).  The paper tracks a small
            table of delinquent PCs; 32 is its flavour of "small".
        epoch_misses: LLC misses per profiling/selection epoch.
        epoch_accesses: upper bound on an epoch's length in LLC
            *accesses* (0 = ``10 * epoch_misses``).  Low-MPKI programs
            tick the miss counter slowly; without this cap their first
            selection could land after the measurement window.
        history_capacity: entries in the Next-Use eviction history buffer
            (evicted tags remembered while waiting for their next use).
        max_selected_pcs: upper bound on how many PCs may be selected.
        selector: ``"greedy"`` (the paper's cost-benefit algorithm),
            ``"oracle"`` (exhaustive subset search; exponential, only for
            small candidate pools), ``"topk"`` (naive: select the k
            biggest miss producers, the strawman the paper argues
            against), or ``"all"`` (select everything — a PC-blind
            victim buffer, the other ablation extreme).
        deli_replacement: ``"fifo"`` (paper) or ``"lru"`` (ablation).
        sample_period: profile every Nth LLC set (1 = exact profiling).
    """

    deli_ways: int = 8
    num_candidate_pcs: int = 32
    epoch_misses: int = 10_000
    epoch_accesses: int = 0
    history_capacity: int = 8192
    max_selected_pcs: int = 16
    selector: str = "greedy"
    deli_replacement: str = "fifo"
    sample_period: int = 1

    _SELECTORS = ("greedy", "oracle", "topk", "all")

    @property
    def effective_epoch_accesses(self) -> int:
        """Access cap on epoch length (defaulted from epoch_misses)."""
        return self.epoch_accesses or 10 * self.epoch_misses

    _DELI_POLICIES = ("fifo", "lru")

    def __post_init__(self) -> None:
        if self.deli_ways < 0:
            raise ConfigError(f"deli_ways must be >= 0, got {self.deli_ways}")
        if self.num_candidate_pcs <= 0:
            raise ConfigError(f"num_candidate_pcs must be positive, got {self.num_candidate_pcs}")
        if self.epoch_misses <= 0:
            raise ConfigError(f"epoch_misses must be positive, got {self.epoch_misses}")
        if self.epoch_accesses < 0:
            raise ConfigError(
                f"epoch_accesses must be >= 0, got {self.epoch_accesses}"
            )
        if self.history_capacity <= 0:
            raise ConfigError(f"history_capacity must be positive, got {self.history_capacity}")
        if not 0 < self.max_selected_pcs <= self.num_candidate_pcs:
            raise ConfigError(
                f"max_selected_pcs must be in 1..{self.num_candidate_pcs}, "
                f"got {self.max_selected_pcs}"
            )
        if self.selector not in self._SELECTORS:
            raise ConfigError(f"selector must be one of {self._SELECTORS}, got {self.selector!r}")
        if self.deli_replacement not in self._DELI_POLICIES:
            raise ConfigError(
                f"deli_replacement must be one of {self._DELI_POLICIES}, "
                f"got {self.deli_replacement!r}"
            )
        if self.sample_period <= 0:
            raise ConfigError(f"sample_period must be positive, got {self.sample_period}")


@dataclass(frozen=True)
class SystemConfig:
    """Full CMP configuration: cores, private caches, shared LLC, timing.

    The LLC geometry is *total* (shared), not per-core: following the
    paper, capacity grows with the core count (1 "unit" per core).
    """

    num_cores: int
    l1: CacheGeometry
    l2: CacheGeometry
    llc: CacheGeometry
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    nucache: NUcacheConfig = field(default_factory=NUcacheConfig)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError(f"num_cores must be positive, got {self.num_cores}")
        if not (self.l1.block_bytes == self.l2.block_bytes == self.llc.block_bytes):
            raise ConfigError("all cache levels must share one block size")
        if self.nucache.deli_ways >= self.llc.ways:
            raise ConfigError(
                f"deli_ways ({self.nucache.deli_ways}) must leave at least one "
                f"MainWay in a {self.llc.ways}-way LLC"
            )

    @property
    def block_bytes(self) -> int:
        """Block size shared by every level."""
        return self.llc.block_bytes

    def overhead_report(self, hardware_sample_period: int = 32) -> Dict[str, int]:
        """Storage overhead (bits) of the NUcache additions, as in the
        paper's hardware-budget table.

        Accounts for the per-line fill-PC identifier, the Next-Use
        history buffer, the candidate-PC table and the per-PC histogram
        counters.  A hardware implementation monitors a 1-in-
        ``hardware_sample_period`` sample of the sets (the paper's
        design; our simulator can afford exact profiling, see the
        sampling ablation), so the history buffer is budgeted at the
        sampled size.
        """
        if hardware_sample_period <= 0:
            raise ConfigError(
                f"hardware_sample_period must be positive, got {hardware_sample_period}"
            )
        pc_id_bits = max(1, (self.nucache.num_candidate_pcs - 1).bit_length())
        per_line = pc_id_bits + 1  # candidate-PC id + "selected" bit
        tag_bits = 48 - (self.llc.num_sets.bit_length() - 1) - (
            self.block_bytes.bit_length() - 1
        )
        history_entry_bits = tag_bits + pc_id_bits
        history_entries = max(64, self.nucache.history_capacity // hardware_sample_period)
        counter_bits = 32
        histogram_buckets = 16
        return {
            "per_line_bits": per_line * self.llc.num_lines,
            "history_buffer_bits": history_entry_bits * history_entries,
            "pc_table_bits": (48 + counter_bits) * self.nucache.num_candidate_pcs,
            "histogram_bits": counter_bits
            * histogram_buckets
            * self.nucache.num_candidate_pcs,
        }


#: Paper machine (scaled 4x down in LLC capacity; see module docstring).
_PAPER_BLOCK = 64


def paper_llc_geometry(num_cores: float) -> CacheGeometry:
    """LLC geometry used by the presets: 256 KB per core, 16-way.

    A power-of-two fraction of a core is a smaller LLC (0.5: 128 KB).
    """
    size_bytes = 256 * 1024 * num_cores
    if size_bytes != int(size_bytes):
        raise ConfigError(f"{num_cores} cores give no whole LLC size in bytes")
    return CacheGeometry(size_bytes=int(size_bytes), block_bytes=_PAPER_BLOCK, ways=16)


def paper_system_config(num_cores: int = 1, **nucache_overrides: object) -> SystemConfig:
    """The default evaluation machine (see DESIGN.md for the scaling note).

    Private levels: 8 KB L1 + 64 KB L2 per core (scaled in proportion to
    the LLC).  Shared LLC: 256 KB/core, 16-way, 64 B lines.  The
    Next-Use history and epoch length scale with the core count so that
    multicore eviction traffic does not starve the profiler.
    """
    defaults: Dict[str, object] = {
        "history_capacity": 8192 * num_cores,
        "epoch_misses": 10_000 * num_cores,
    }
    defaults.update(nucache_overrides)
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheGeometry(size_bytes=8 * 1024, block_bytes=_PAPER_BLOCK, ways=2),
        l2=CacheGeometry(size_bytes=64 * 1024, block_bytes=_PAPER_BLOCK, ways=8),
        llc=paper_llc_geometry(num_cores),
        nucache=NUcacheConfig(**defaults),  # type: ignore[arg-type]
    )


def tiny_system_config(num_cores: int = 1, **nucache_overrides: object) -> SystemConfig:
    """A very small machine for unit tests (fast, easily reasoned about)."""
    defaults: Dict[str, object] = {
        "deli_ways": 2,
        "num_candidate_pcs": 8,
        "epoch_misses": 500,
        "history_capacity": 256,
        "max_selected_pcs": 4,
    }
    defaults.update(nucache_overrides)
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheGeometry(size_bytes=512, block_bytes=64, ways=2),
        l2=CacheGeometry(size_bytes=2 * 1024, block_bytes=64, ways=4),
        llc=CacheGeometry(size_bytes=16 * 1024 * num_cores, block_bytes=64, ways=8),
        nucache=NUcacheConfig(**defaults),  # type: ignore[arg-type]
    )


def config_table(config: SystemConfig) -> Tuple[Tuple[str, str], ...]:
    """Render a config as (parameter, value) rows — the paper's Table 1."""

    def _kb(geometry: CacheGeometry) -> str:
        return f"{geometry.size_bytes // 1024} KB, {geometry.ways}-way, {geometry.block_bytes} B lines"

    return (
        ("Cores", str(config.num_cores)),
        ("L1 (private, per core)", _kb(config.l1)),
        ("L2 (private, per core)", _kb(config.l2)),
        ("LLC (shared)", _kb(config.llc)),
        ("LLC sets", str(config.llc.num_sets)),
        ("L1/L2/LLC/memory latency",
         f"{config.latency.l1_hit}/{config.latency.l2_hit}/"
         f"{config.latency.llc_hit}/{config.latency.memory} cycles"),
        ("NUcache MainWays/DeliWays",
         f"{config.llc.ways - config.nucache.deli_ways}/{config.nucache.deli_ways}"),
        ("NUcache candidate PCs", str(config.nucache.num_candidate_pcs)),
        ("NUcache epoch", f"{config.nucache.epoch_misses} LLC misses"),
    )
