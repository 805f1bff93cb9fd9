"""Parsers, correctness accounting and process measurement."""

from __future__ import annotations

import hashlib
import json
import sys

from e2ebench.launch import (
    Launch,
    Tally,
    journal_path,
    launch_problems,
    parse_exec_lines,
    parse_summaries,
    read_journal,
    run_process,
    split_sections,
)

FIG5_TEXT = (
    "== fig5: Dual-core weighted speedup: NUcache vs LRU (paper: +9.6%) ==\n"
    "mix    | ws_lru | ws_nucache | nucache_vs_lru\n"
    "gmean  | 1.913  | 1.831      | -0.0427       \n"
    "summary: gmean_improvement=-0.0427\n"
    "ws_* columns are weighted speedups."
)
TABLE1_TEXT = "== table1: Baseline system configuration ==\nparameter | value"
STDOUT = f"{TABLE1_TEXT}\n\n{FIG5_TEXT}\n\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _journal(tmp_path, *, status="completed", fig5_digest=None):
    """A canned journal for a ``run table1 fig5`` launch, with a torn tail."""
    records = [
        {"record": "start", "experiments": ["table1", "fig5"], "jobs": 2},
        {"record": "experiment_start", "experiment": "table1"},
        {"record": "experiment_end", "experiment": "table1", "status": "ok",
         "output_sha256": _sha(TABLE1_TEXT), "elapsed": 0.001},
        {"record": "experiment_start", "experiment": "fig5"},
        {"record": "batch", "jobs": 40, "report": {"total": 48, "failed": 0}},
        {"record": "experiment_end", "experiment": "fig5", "status": "ok",
         "output_sha256": fig5_digest or _sha(FIG5_TEXT), "elapsed": 1.5},
        {"record": "end", "status": status},
    ]
    path = tmp_path / "run.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records) + '{"record": "tor',
                    encoding="utf-8")
    return path


def _launch(tmp_path, *, exit_code=0, stdout=STDOUT, failed=0, **journal):
    path = _journal(tmp_path, **journal)
    stderr = (f"[run] id=r1 journal={path}\n"
              f"[exec] fig5: 48 jobs: {48 - failed} computed, 0 cached, {failed} failed "
              f"(1 retried), 2 lease waits in 1.36s\n")
    return Launch(exit_code=exit_code, wall_s=2.0, setup_s=0.25, cpu_s=3.0,
                  peak_rss_mb=60.0, stdout=stdout, stderr=stderr)


def test_exec_lines_parse_with_optional_extras():
    rows = parse_exec_lines(
        "[run] id=x journal=/j\n"
        "[exec] fig8: 72 jobs: 24 computed, 48 cached, 0 failed (0 retried) in 2.56s\n"
        "[exec] table3: 16 jobs: 0 computed, 16 cached, 1 failed (3 retried), "
        "2 store fallbacks (degraded) in 0.00s\n"
        "noise\n"
    )
    assert rows == [
        {"experiment": "fig8", "total": 72, "computed": 24, "cached": 48, "failed": 0,
         "retried": 0},
        {"experiment": "table3", "total": 16, "computed": 0, "cached": 16, "failed": 1,
         "retried": 3},
    ]


def test_journal_digest_tolerates_a_torn_tail(tmp_path):
    journal = read_journal(_journal(tmp_path))
    assert journal.status == "completed"
    assert journal.experiments == ["table1", "fig5"]
    assert journal.batched == ["fig5"]
    assert journal.ended["fig5"]["elapsed"] == 1.5


def test_summary_and_sections():
    assert parse_summaries(STDOUT) == {"fig5": {"gmean_improvement": -0.0427}}
    assert split_sections(STDOUT) == [TABLE1_TEXT, FIG5_TEXT]
    assert journal_path("[run] id=a journal=/x/y z.jsonl\n").as_posix() == "/x/y z.jsonl"


def test_a_clean_launch_has_no_problems(tmp_path):
    launch = _launch(tmp_path)
    assert launch_problems(launch, _sha(STDOUT)) == []
    tally = Tally()
    assert tally.add(launch, _sha(STDOUT), "launch") == []
    assert (tally.attempted, tally.failed, tally.correct) == (1 + 48, 0, True)


def test_nonzero_exit_counts_one_failure(tmp_path):
    tally = Tally()
    tally.add(_launch(tmp_path, exit_code=1), None, "launch")
    assert (tally.attempted, tally.failed, tally.correct) == (49, 1, False)
    assert tally.problems == ["launch: exit code 1"]


def test_digest_mismatch_counts_one_failure(tmp_path):
    tally = Tally()
    tally.add(_launch(tmp_path), "0" * 64, "launch")
    assert (tally.failed, tally.correct) == (1, False)
    assert "stdout sha256" in tally.problems[0]


def test_failed_jobs_count_each(tmp_path):
    tally = Tally()
    tally.add(_launch(tmp_path, failed=3), _sha(STDOUT), "launch")
    assert (tally.attempted, tally.failed, tally.correct) == (49, 3, False)


def test_a_warm_launch_must_compute_nothing(tmp_path):
    assert launch_problems(_launch(tmp_path), _sha(STDOUT), all_cached=True) == [
        "48 jobs computed, expected every one cached"
    ]
    tally = Tally()
    tally.add(_launch(tmp_path), _sha(STDOUT), "launch", all_cached=True)
    assert (tally.failed, tally.correct) == (1, False)


def test_journal_must_agree_with_stdout(tmp_path):
    assert launch_problems(_launch(tmp_path, fig5_digest="f" * 64), None) == [
        "fig5: journal digest does not match stdout"
    ]
    assert launch_problems(_launch(tmp_path, status="failed"), None) == [
        "journal status 'failed'"
    ]
    truncated = _launch(tmp_path, stdout=f"{TABLE1_TEXT}\n\n")
    assert launch_problems(truncated, None) == ["1 output sections for 2 experiments"]


def test_run_process_measures_and_times_out(tmp_path):
    code = ("import sys; print('[run] id=x journal=/j', file=sys.stderr, flush=True); "
            "print('out'); sys.exit(3)")
    launch = run_process([sys.executable, "-c", code], {}, tmp_path, timeout=60)
    assert (launch.exit_code, launch.stdout, launch.timed_out) == (3, "out\n", False)
    assert 0 < launch.setup_s <= launch.wall_s
    assert launch.cpu_s > 0 and launch.peak_rss_mb > 1
    slow = run_process([sys.executable, "-c", "import time; time.sleep(60)"], {}, tmp_path,
                       timeout=0.5)
    assert slow.timed_out and slow.exit_code != 0 and slow.wall_s < 30
