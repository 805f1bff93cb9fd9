"""Tests for repro.common.config."""

from __future__ import annotations

import pytest

from repro.common.config import (
    CacheGeometry,
    LatencyConfig,
    NUcacheConfig,
    SystemConfig,
    config_table,
    paper_llc_geometry,
    paper_system_config,
    tiny_system_config,
)
from repro.common.errors import ConfigError


class TestCacheGeometry:
    def test_num_sets(self):
        geometry = CacheGeometry(size_bytes=256 * 1024, block_bytes=64, ways=16)
        assert geometry.num_sets == 256
        assert geometry.num_lines == 4096

    def test_scaled(self):
        geometry = CacheGeometry(size_bytes=64 * 1024, block_bytes=64, ways=16)
        assert geometry.scaled(4).num_sets == geometry.num_sets * 4
        assert geometry.scaled(4).ways == geometry.ways

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=1024, block_bytes=48, ways=2)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=1024, block_bytes=64, ways=0)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=1000, block_bytes=64, ways=2)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=3 * 64 * 2, block_bytes=64, ways=2)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=-1024, block_bytes=64, ways=2)


class TestLatencyConfig:
    def test_defaults_monotone(self):
        latency = LatencyConfig()
        assert latency.l1_hit < latency.l2_hit < latency.llc_hit < latency.memory

    def test_rejects_non_monotone(self):
        with pytest.raises(ConfigError):
            LatencyConfig(l1_hit=5, l2_hit=3, llc_hit=30, memory=250)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            LatencyConfig(l1_hit=0)


class TestNUcacheConfig:
    def test_defaults_valid(self):
        config = NUcacheConfig()
        assert config.deli_ways == 8
        assert config.selector == "greedy"

    def test_rejects_negative_deli(self):
        with pytest.raises(ConfigError):
            NUcacheConfig(deli_ways=-1)

    def test_zero_deli_allowed(self):
        assert NUcacheConfig(deli_ways=0).deli_ways == 0

    def test_rejects_unknown_selector(self):
        with pytest.raises(ConfigError):
            NUcacheConfig(selector="magic")

    def test_rejects_unknown_deli_replacement(self):
        with pytest.raises(ConfigError):
            NUcacheConfig(deli_replacement="mru")

    def test_rejects_max_selected_above_candidates(self):
        with pytest.raises(ConfigError):
            NUcacheConfig(num_candidate_pcs=8, max_selected_pcs=9)

    def test_rejects_zero_epoch(self):
        with pytest.raises(ConfigError):
            NUcacheConfig(epoch_misses=0)

    def test_rejects_zero_history(self):
        with pytest.raises(ConfigError):
            NUcacheConfig(history_capacity=0)

    def test_rejects_zero_sample_period(self):
        with pytest.raises(ConfigError):
            NUcacheConfig(sample_period=0)


class TestSystemConfig:
    def test_paper_preset_scales_llc(self):
        for cores in (1, 2, 4, 8):
            config = paper_system_config(cores)
            assert config.llc.size_bytes == 256 * 1024 * cores
            assert config.num_cores == cores

    def test_paper_preset_scales_nucache_knobs(self):
        assert (
            paper_system_config(4).nucache.history_capacity
            == 4 * paper_system_config(1).nucache.history_capacity
        )

    def test_paper_preset_overrides(self):
        config = paper_system_config(2, deli_ways=4, selector="topk")
        assert config.nucache.deli_ways == 4
        assert config.nucache.selector == "topk"

    def test_tiny_preset(self):
        config = tiny_system_config(1)
        assert config.llc.ways == 8
        assert config.nucache.deli_ways == 2

    def test_rejects_mismatched_block_sizes(self):
        good = paper_system_config(1)
        with pytest.raises(ConfigError):
            SystemConfig(
                num_cores=1,
                l1=CacheGeometry(size_bytes=1024, block_bytes=32, ways=2),
                l2=good.l2,
                llc=good.llc,
            )

    def test_rejects_deli_consuming_all_ways(self):
        with pytest.raises(ConfigError):
            paper_system_config(1, deli_ways=16)

    def test_rejects_zero_cores(self):
        good = paper_system_config(1)
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0, l1=good.l1, l2=good.l2, llc=good.llc)

    def test_block_bytes(self):
        assert paper_system_config(1).block_bytes == 64


class TestOverheadReport:
    def test_small_fraction_of_llc(self):
        config = paper_system_config(1)
        report = config.overhead_report()
        total_bits = sum(report.values())
        assert 0 < total_bits < 0.05 * config.llc.size_bytes * 8

    def test_structures_present(self):
        report = paper_system_config(1).overhead_report()
        assert set(report) == {
            "per_line_bits",
            "history_buffer_bits",
            "pc_table_bits",
            "histogram_bits",
        }

    def test_rejects_bad_sample_period(self):
        with pytest.raises(ConfigError):
            paper_system_config(1).overhead_report(hardware_sample_period=0)


class TestConfigTable:
    def test_contains_key_parameters(self):
        rows = dict(config_table(paper_system_config(4)))
        assert rows["Cores"] == "4"
        assert "16-way" in rows["LLC (shared)"]
        assert rows["NUcache MainWays/DeliWays"] == "8/8"

    def test_llc_geometry_helper(self):
        assert paper_llc_geometry(8).num_sets == 2048
        assert paper_llc_geometry(0.5).size_bytes == 128 * 1024
        assert paper_llc_geometry(2.0) == paper_llc_geometry(2)
        for bad in (0.3, 0.75, 3):
            with pytest.raises(ConfigError):
                paper_llc_geometry(bad)
