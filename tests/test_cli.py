"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_experiments(self):
        args = build_parser().parse_args(["run", "fig5", "fig6"])
        assert args.experiments == ["fig5", "fig6"]

    def test_sim_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim"])

    def test_sim_mix_and_benchmark_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sim", "--mix", "mix2_1", "--benchmark", "art_like"]
            )

    def test_sim_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim", "--mix", "mix2_1", "--policy", "magic"])

    def test_run_jobs_and_no_cache_flags(self):
        args = build_parser().parse_args(["run", "fig5", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_sim_seed_flag(self):
        args = build_parser().parse_args(
            ["sim", "--benchmark", "art_like", "--seed", "7"]
        )
        assert args.seed == 7

    def test_cache_actions(self):
        assert build_parser().parse_args(["cache", "stats"]).action == "stats"
        args = build_parser().parse_args(
            ["cache", "prune", "--keep", "10", "--max-age-days", "30"]
        )
        assert args.keep == 10
        assert args.max_age_days == 30.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])

    def test_store_serve_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["store", "serve"])
        assert exc.value.code == 2


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "experiments:" in out
        assert "art_like" in out
        assert "mix4_1" in out

    def test_run_table(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Simulated system configuration" in capsys.readouterr().out

    def test_sim_benchmark(self, capsys):
        assert main([
            "sim", "--benchmark", "hmmer_like", "--policy", "lru",
            "--accesses", "5000",
        ]) == 0
        out = capsys.readouterr().out
        assert "hmmer_like under lru" in out
        assert "ipc=" in out

    def test_sim_mix(self, capsys):
        assert main([
            "sim", "--mix", "mix2_9", "--policy", "lru", "--accesses", "5000",
        ]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out

    def test_sim_seed_changes_the_run(self, capsys):
        base = ["sim", "--benchmark", "hmmer_like", "--policy", "lru",
                "--accesses", "5000"]
        assert main(base) == 0
        default_out = capsys.readouterr().out
        assert main(base + ["--seed", "12345"]) == 0
        seeded_out = capsys.readouterr().out
        assert seeded_out != default_out

    def test_cache_stats_and_clear(self, capsys):
        assert main(["cache", "stats"]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out

    def test_cache_prune_requires_a_bound(self, capsys):
        assert main(["cache", "prune"]) == 2

    def test_run_reports_exec_summary(self, capsys):
        import os

        from repro.exec import context as exec_context

        os.environ["REPRO_SCALE"] = "0.05"
        try:
            assert main(["run", "fig3", "--jobs", "2"]) == 0
        finally:
            del os.environ["REPRO_SCALE"]
            exec_context.reset()
        captured = capsys.readouterr()
        assert "== fig3" in captured.out
        assert "[exec] fig3:" in captured.err
        assert "cached" in captured.err


class TestNewSubcommands:
    def test_characterize(self, capsys):
        assert main(["characterize", "hmmer_like", "--accesses", "5000"]) == 0
        out = capsys.readouterr().out
        assert "hmmer_like:" in out
        assert "miss ratio" in out
        assert "pc 0x" in out

    def test_trace_export_text(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        assert main(["trace", "hmmer_like", "-o", str(out_file),
                     "--accesses", "500"]) == 0
        assert out_file.exists()
        from repro.workloads.textio import load_text

        assert len(load_text(out_file)) == 500

    def test_trace_export_npz(self, tmp_path):
        out_file = tmp_path / "t.npz"
        assert main(["trace", "twolf_like", "-o", str(out_file),
                     "--accesses", "500"]) == 0
        from repro.workloads.trace import Trace

        assert len(Trace.load(out_file)) == 500


class TestCheckSubcommand:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["check", "--quick", "--seed", "7", "--policies", "lru", "nucache",
             "--accesses", "500", "--force-violation"]
        )
        assert args.quick and args.force_violation
        assert args.seed == 7
        assert args.policies == ["lru", "nucache"]
        assert args.accesses == 500
        assert args.replay is None

    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["check", "--quick", "--policies", "lru",
                     "--accesses", "300"]) == 0
        captured = capsys.readouterr()
        assert "all clean" in captured.out
        assert "ok" in captured.err  # per-case progress goes to stderr

    def test_forced_violation_round_trips(self, tmp_path, monkeypatch, capsys):
        from repro.exec.stores import STORE_ENV_VAR

        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        assert main(["check", "--quick", "--policies", "nucache",
                     "--accesses", "400", "--force-violation"]) == 0
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "forced violation detected as expected" in out
        (reproducer,) = (tmp_path / "check").glob("repro-*.json")

        assert main(["check", "--replay", str(reproducer)]) == 1
        assert "violation reproduced" in capsys.readouterr().out

    def test_replay_unreadable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        assert main(["check", "--replay", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFailedOutcomeRendering:
    def test_renders_forensics(self, capsys):
        from repro.cli import _print_failed_outcome

        _print_failed_outcome("abcdef1234567890", {
            "label": "sim hmmer_like lru",
            "attempts": 2,
            "error": "InvariantViolation('set 3: broken')",
            "violations": ["set 3: broken"],
            "traceback": "Traceback (most recent call last):\n  boom\n",
            "snapshot": {"policy": "lru"},
        })
        out = capsys.readouterr().out
        assert "failed abcdef123456" in out
        assert "violated: set 3: broken" in out
        assert "| Traceback" in out
        assert '"policy": "lru"' in out

    def test_compact_without_forensics(self, capsys):
        from repro.cli import _print_failed_outcome

        _print_failed_outcome("feedbeef", {
            "label": "sim art_like lru", "attempts": 1, "error": "boom",
        })
        out = capsys.readouterr().out
        assert "failed feedbeef" in out
        assert "violated" not in out
        assert "|" not in out
