"""Tiny-scale smoke tests for the experiment drivers.

``tests/test_claims.py`` runs each driver at realistic scale with shape
assertions; these tests only verify the drivers' *plumbing* (rows,
columns, summaries, determinism hooks) at the smallest useful trace
length, so a refactor that breaks a driver fails fast in the unit
suite.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import CacheGeometry, paper_system_config
from repro.common.rng import DEFAULT_SEED
from repro.exec import SimJob
from repro.exec import context as exec_context
from repro.experiments import (
    fig1_delinquent_pcs,
    fig2_nextuse_cdf,
    fig3_single_core,
    fig4_deliway_sweep,
    fig9_selection_ablation,
    fig10_hardware_ablations,
    fig12_prefetch,
    fig14_phases,
    fig15_llc_size,
)
from repro.experiments.base import sim_grid
from repro.sim.memory import FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.runner import make_traces
from repro.sim.vector import make_engine

TINY = 15_000


class TestCharacterizationDrivers:
    def test_fig1_rows_and_summary(self):
        result = fig1_delinquent_pcs.run(accesses=TINY)
        assert len(result.rows) >= 14
        for row in result.rows:
            assert 0.0 <= row["top1"] <= row["top8"] <= 1.0
        assert "mean_top8_coverage" in result.summary

    def test_fig2_cdf_monotone(self):
        result = fig2_nextuse_cdf.run(accesses=TINY)
        for row in result.rows:
            cdf = [row[f"<= {edge}"] for edge in fig2_nextuse_cdf.BUCKET_EDGES]
            assert all(a <= b + 1e-9 for a, b in zip(cdf, cdf[1:])), row


class TestPolicyDrivers:
    def test_fig3_has_all_benchmarks(self):
        result = fig3_single_core.run(accesses=TINY)
        from repro.workloads.spec_like import benchmark_names

        assert {row["benchmark"] for row in result.rows} == set(benchmark_names())
        assert result.summary["gmean_speedup"] > 0

    def test_fig4_d0_is_lru(self):
        result = fig4_deliway_sweep.run(accesses=TINY)
        for row in result.rows[:-1]:
            assert row["D=0"] == pytest.approx(1.0, abs=1e-6)

    def test_fig9_row_tags(self):
        result = fig9_selection_ablation.run(accesses=TINY)
        tags = {row["ablation"] for row in result.rows}
        assert tags == {"selector", "epoch"}

    def test_fig10_row_tags(self):
        result = fig10_hardware_ablations.run(accesses=TINY)
        tags = {row["ablation"] for row in result.rows}
        assert tags == {"sampling", "history", "deli-hit"}


class TestExtensionDrivers:
    def test_fig12_grid_complete(self):
        result = fig12_prefetch.run(accesses=TINY)
        for row in result.rows:
            for prefetcher in fig12_prefetch.PREFETCHERS:
                assert f"{prefetcher}:gain" in row

    def test_fig15_cells_equal_direct_engines(self):
        """Each scheduled cell is the engine fig15 once built itself."""

        def direct(name, size_kb, policy):
            config = replace(paper_system_config(1), llc=CacheGeometry(
                size_bytes=size_kb * 1024, block_bytes=64, ways=16))
            engine = make_engine(
                make_traces([name], TINY, DEFAULT_SEED),
                make_llc(policy, config, DEFAULT_SEED), config,
                FixedLatencyMemory(config.latency.memory), warmup_fraction=0.25,
            )
            return engine.run()

        result = fig15_llc_size.run(accesses=TINY)
        for row in result.rows[:-1]:
            name = row["benchmark"]
            for size_kb in fig15_llc_size.SIZE_SWEEP_KB:
                # Store hits: fig15 just resolved these jobs.
                lru, nuca = sim_grid([
                    SimJob.single(name, policy, TINY, capacity_cores=size_kb / 256)
                    for policy in ("lru", "nucache")
                ])
                assert lru.to_dict() == direct(name, size_kb, "lru").to_dict()
                assert nuca.to_dict() == direct(name, size_kb, "nucache").to_dict()
                ratio = nuca.cores[0].ipc / lru.cores[0].ipc
                assert row[f"{size_kb}KB"] == round(ratio, 4)

    def test_fig14_three_configurations(self):
        result = fig14_phases.run(accesses=4 * TINY)
        assert len(result.rows) == 3
        assert result.rows[0]["configuration"] == "lru"
        assert result.summary["adaptive_vs_frozen"] > 0


class TestDriversResolveThroughTheStore:
    @pytest.mark.parametrize(
        "driver",
        [fig9_selection_ablation, fig10_hardware_ablations, fig12_prefetch,
         fig15_llc_size],
        ids=lambda driver: driver.EXPERIMENT_ID,
    )
    def test_rerun_is_served_from_the_store(self, driver):
        exec_context.reset()
        driver.run(accesses=TINY)
        exec_context.reset_totals()
        driver.run(accesses=TINY)
        totals = exec_context.totals()
        assert totals.completed == 0
        assert totals.cached > 0
