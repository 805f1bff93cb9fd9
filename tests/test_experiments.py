"""Tests for the experiment infrastructure and cheap drivers.

The heavyweight figure drivers are exercised end-to-end by the claims
tests (``tests/test_claims.py``); here we cover the shared machinery and
the drivers that run instantly (tables), plus tiny-scale smoke runs.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ExperimentError
from repro.experiments import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.base import ExperimentResult, render_table, scaled_accesses
from repro.experiments.harness import mix_weighted_speedups, multicore_comparison


class TestScaledAccesses:
    def test_default_passthrough(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scaled_accesses(100_000) == 100_000

    def test_scaling(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scaled_accesses(100_000) == 50_000

    def test_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        assert scaled_accesses(100_000) == 10_000

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "big")
        with pytest.raises(ExperimentError):
            scaled_accesses(100_000)

    def test_rejects_negative(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ExperimentError):
            scaled_accesses(100_000)

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, scale, monkeypatch):
        # float() accepts these; int() of the product would then raise a
        # ValueError or OverflowError instead of a usage error.
        monkeypatch.setenv("REPRO_SCALE", scale)
        with pytest.raises(ExperimentError, match="finite"):
            scaled_accesses(100_000)


class TestRenderTable:
    def test_empty(self):
        assert render_table([]) == "(no rows)"

    def test_alignment_and_content(self):
        text = render_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "22" in lines[3]

    def test_missing_cells(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text


class TestExperimentResult:
    def test_column_helpers(self):
        result = ExperimentResult("x", "t", [{"a": 1}, {"a": 2, "b": 3}])
        assert result.column_names() == ["a", "b"]
        assert result.column("a") == [1, 2]
        assert result.column("b") == [None, 3]

    def test_to_text_includes_everything(self):
        result = ExperimentResult(
            "x", "title", [{"a": 1}], notes="note", summary={"m": 1.5}
        )
        text = result.to_text()
        assert "x: title" in text
        assert "note" in text
        assert "m=1.5" in text


class TestRegistry:
    def test_ids_cover_design_doc(self):
        ids = experiment_ids()
        for expected in ("table1", "table2", "fig1", "fig2", "fig3", "fig4",
                         "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert expected in ids

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_registry_callables(self):
        assert all(callable(fn) for fn in EXPERIMENTS.values())


class TestInstantDrivers:
    def test_table1(self):
        result = run_experiment("table1")
        assert len(result.rows) == 4
        assert result.rows[0]["cores"] == 1
        assert result.rows[-1]["cores"] == 8

    def test_table2(self):
        result = run_experiment("table2")
        assert all(row["pct_of_llc"] < 5 for row in result.rows)


class TestHarness:
    def test_mix_weighted_speedups_smoke(self):
        speedups = mix_weighted_speedups("mix2_9", ["lru"], accesses=15_000)
        assert 0 < speedups["lru"] <= 2.3

    def test_multicore_comparison_requires_baseline(self):
        with pytest.raises(ValueError):
            multicore_comparison(2, ["nucache"], accesses=15_000)

    def test_multicore_comparison_rows(self):
        rows = multicore_comparison(2, ["lru", "dip"], accesses=12_000)
        assert rows[-1]["mix"] == "gmean"
        assert "dip_vs_lru" in rows[-1]
        # one row per mix plus the gmean row
        from repro.workloads.mixes import mix_names

        assert len(rows) == len(mix_names(2)) + 1
