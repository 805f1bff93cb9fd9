"""Tiny-scale smoke tests for the experiment drivers.

The benchmark harness runs each driver at realistic scale with shape
assertions; these tests only verify the drivers' *plumbing* (rows,
columns, summaries, determinism hooks) at the smallest useful trace
length, so a refactor that breaks a driver fails fast in the unit
suite.
"""

from __future__ import annotations

import pytest

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
)

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

    def test_fig14_three_configurations(self):
        result = fig14_phases.run(accesses=4 * TINY)
        assert len(result.rows) == 3
        assert result.rows[0]["configuration"] == "lru"
        assert result.summary["adaptive_vs_frozen"] > 0


class TestDriversResolveThroughTheStore:
    @pytest.mark.parametrize(
        "driver",
        [fig9_selection_ablation, fig10_hardware_ablations, fig12_prefetch],
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
