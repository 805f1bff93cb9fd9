"""Tests for the run journal, graceful interrupts, and resume."""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.common.errors import ExecError, RunInterrupted
from repro.exec import (
    FileResultStore,
    RunJournal,
    Scheduler,
    SimJob,
    execute_job,
)
from repro.exec import context as exec_context
from repro.exec import journal as run_journal
from repro.exec.stores import STORE_ENV_VAR

ACCESSES = 4_000


@pytest.fixture(autouse=True)
def _isolated_runs(tmp_path, monkeypatch):
    """Each test gets its own store base (hence its own runs directory)."""
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "base"))
    exec_context.reset()
    yield
    exec_context.reset()


def _grid():
    return [
        SimJob.single(name, policy, ACCESSES)
        for name in ("hmmer_like", "art_like")
        for policy in ("lru", "nucache")
    ]


# ----------------------------------------------------------------------
# Journal format, listing, resume planning
# ----------------------------------------------------------------------


class TestRunJournal:
    def test_create_writes_start_record(self):
        journal = RunJournal.create(["fig5", "fig6"], jobs=4, use_cache=True)
        records = run_journal.read_records(journal.path)
        assert records[0]["record"] == "start"
        assert records[0]["experiments"] == ["fig5", "fig6"]
        assert records[0]["jobs"] == 4
        assert journal.path.parent == run_journal.default_runs_dir()

    def test_full_lifecycle_and_summary(self):
        journal = RunJournal.create(["fig5", "fig6"])
        journal.record_experiment_start("fig5")
        journal.record_batch(
            {"k1": {"status": "completed"}}, None, label="grid"
        )
        journal.record_experiment_end("fig5", status="ok", elapsed=1.0)
        journal.record_experiment_start("fig6")
        journal.close("interrupted")
        summary = run_journal.summarize(journal.path)
        assert summary.run_id == journal.run_id
        assert summary.status == "interrupted"
        assert summary.completed == ["fig5"]
        assert summary.pending == ["fig6"]
        assert journal.run_id in summary.describe()

    def test_append_after_close_is_ignored(self):
        journal = RunJournal.create(["fig5"])
        journal.close("completed")
        journal.record_experiment_start("fig5")
        kinds = [r["record"] for r in run_journal.read_records(journal.path)]
        assert kinds == ["start", "end"]

    def test_reader_tolerates_torn_tail(self):
        journal = RunJournal.create(["fig5"])
        journal.record_experiment_start("fig5")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "experiment_end", "experi')  # hard kill
        records = run_journal.read_records(journal.path)
        assert [r["record"] for r in records] == ["start", "experiment_start"]
        # A journal with no end record reads as aborted, not running.
        assert run_journal.summarize(journal.path).status == "aborted"

    def test_load_journal_warns_on_torn_tail(self):
        journal = RunJournal.create(["fig5"])
        journal.record_experiment_start("fig5")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "experiment_end", "experi')  # hard kill
        records, warnings = run_journal.load_journal(journal.path)
        assert [r["record"] for r in records] == ["start", "experiment_start"]
        assert len(warnings) == 1
        assert "torn trailing record" in warnings[0]

    def test_load_journal_warns_on_midfile_corruption(self):
        journal = RunJournal.create(["fig5"])
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        journal.record_experiment_start("fig5")
        journal.close("completed")
        records, warnings = run_journal.load_journal(journal.path)
        # The valid records around the corruption all survive...
        assert [r["record"] for r in records] == [
            "start", "experiment_start", "end",
        ]
        # ...and the bad line is called out as corruption, not a torn tail.
        assert len(warnings) == 1
        assert "line 2 is corrupt" in warnings[0]

    def test_load_journal_clean_file_has_no_warnings(self):
        journal = RunJournal.create(["fig5"])
        journal.close("completed")
        _records, warnings = run_journal.load_journal(journal.path)
        assert warnings == []

    def test_list_runs_newest_first(self):
        first = RunJournal.create(["fig5"], run_id="20250101-000000-p1")
        second = RunJournal.create(["fig6"], run_id="20250102-000000-p1")
        first.close("completed")
        second.close("completed")
        listed = run_journal.list_runs()
        assert [s.run_id for s in listed] == [second.run_id, first.run_id]

    def test_find_run_exact_prefix_ambiguous_missing(self):
        RunJournal.create(["fig5"], run_id="20250101-000000-p1").close("completed")
        RunJournal.create(["fig6"], run_id="20250102-000000-p1").close("completed")
        assert run_journal.find_run("20250101-000000-p1").experiments == ["fig5"]
        assert run_journal.find_run("20250102").experiments == ["fig6"]
        with pytest.raises(ExecError, match="ambiguous"):
            run_journal.find_run("2025")
        with pytest.raises(ExecError, match="no run journal"):
            run_journal.find_run("nope")

    def test_batch_records_flow_through_run_jobs(self):
        journal = RunJournal.create(["adhoc"])
        exec_context.set_journal(journal)
        try:
            exec_context.run_jobs(_grid()[:2], label="unit")
        finally:
            exec_context.set_journal(None)
        batches = [
            r for r in run_journal.read_records(journal.path)
            if r["record"] == "batch"
        ]
        assert len(batches) == 1
        assert batches[0]["label"] == "unit"
        assert batches[0]["jobs"] == 2
        assert batches[0]["report"]["total"] == 2
        statuses = {o["status"] for o in batches[0]["outcomes"].values()}
        assert statuses == {"completed"}


# ----------------------------------------------------------------------
# Graceful interrupts in the scheduler
# ----------------------------------------------------------------------


class TestInterrupt:
    def test_sigint_drains_persists_and_raises_resumable(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        batch = _grid()
        fired = []

        def signalling_execute(job):
            result = execute_job(job)
            if not fired:
                fired.append(job.key())
                os.kill(os.getpid(), signal.SIGINT)
            return result

        scheduler = Scheduler(jobs=1, store=store, execute=signalling_execute)
        with pytest.raises(RunInterrupted) as raised:
            scheduler.run(batch)
        report = raised.value.report
        # The in-flight job drained to completion and was persisted...
        assert report.completed == 1
        assert store.get(batch[0]) is not None
        # ...and the rest are marked for the resume, not failed.
        assert report.interrupted == len(batch) - 1
        assert report.failed == 0
        statuses = [o["status"] for o in raised.value.outcomes.values()]
        assert statuses.count("completed") == 1
        assert statuses.count("interrupted") == len(batch) - 1

        # A rerun serves the settled job from the store and finishes the
        # rest, byte-identical to a clean serial run.
        resumed = Scheduler(jobs=1, store=store)
        results = resumed.run(batch)
        assert resumed.last_report.cached == 1
        clean = Scheduler(jobs=1).run(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in clean]

    def test_signal_handlers_are_restored(self):
        before = signal.getsignal(signal.SIGINT)
        Scheduler(jobs=1).run(_grid()[:1])
        assert signal.getsignal(signal.SIGINT) is before

    def test_interrupted_batch_is_journalled(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        journal = RunJournal.create(["adhoc"])
        exec_context.set_journal(journal)
        exec_context.configure(jobs=1)

        def signalling_execute(job):
            result = execute_job(job)
            os.kill(os.getpid(), signal.SIGINT)
            return result

        import repro.exec.context as ctx

        original = ctx.execute_job
        ctx.execute_job = signalling_execute
        try:
            with pytest.raises(RunInterrupted):
                exec_context.run_jobs(_grid(), label="chaos")
        finally:
            ctx.execute_job = original
            exec_context.set_journal(None)
        batches = [
            r for r in run_journal.read_records(journal.path)
            if r["record"] == "batch"
        ]
        assert len(batches) == 1
        assert batches[0]["status"] == "interrupted"
        statuses = [o["status"] for o in batches[0]["outcomes"].values()]
        assert "interrupted" in statuses


# ----------------------------------------------------------------------
# CLI: journaling runs, runs list/show, --resume
# ----------------------------------------------------------------------


class TestCliRuns:
    def test_run_writes_journal_and_lists(self, capsys):
        from repro.cli import main

        assert main(["run", "table1"]) == 0
        captured = capsys.readouterr()
        assert "[run] id=" in captured.err
        assert main(["runs", "list"]) == 0
        listing = capsys.readouterr().out
        assert "completed" in listing
        run_id = listing.split()[0]
        assert main(["runs", "show", run_id]) == 0
        shown = capsys.readouterr().out
        assert "table1: ok" in shown
        assert "end: completed" in shown

    def test_runs_show_requires_id(self, capsys):
        from repro.cli import main

        assert main(["runs", "show"]) == 2

    def test_runs_show_renders_torn_journal_with_warning(self, capsys):
        # Regression: `runs show` on a journal with a torn tail (hard
        # kill mid-append) must render the valid prefix and warn, not
        # silently swallow the damage.
        from repro.cli import main

        journal = RunJournal.create(["fig5"])
        journal.record_experiment_start("fig5")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "experiment_end"')  # torn write
        assert main(["runs", "show", journal.run_id]) == 0
        captured = capsys.readouterr()
        assert "fig5: started" in captured.out  # valid prefix rendered
        assert "torn trailing record" in captured.err
        assert "warning:" in captured.err

    def test_run_rejects_experiments_plus_resume(self, capsys):
        from repro.cli import main

        assert main(["run", "table1", "--resume", "x"]) == 2
        assert main(["run"]) == 2

    def test_resume_skips_completed_experiments(self, capsys):
        from repro.cli import main

        journal = RunJournal.create(["table1", "table2"])
        journal.record_experiment_end("table1", status="ok")
        journal.close("interrupted")
        assert main(["run", "--resume", journal.run_id]) == 0
        captured = capsys.readouterr()
        assert "skipping table1" in captured.err
        assert "== table2" in captured.out
        assert "== table1" not in captured.out

    def test_resume_of_finished_run_is_a_noop(self, capsys):
        from repro.cli import main

        journal = RunJournal.create(["table1"])
        journal.record_experiment_end("table1", status="ok")
        journal.close("completed")
        assert main(["run", "--resume", journal.run_id]) == 0
        assert "nothing left to run" in capsys.readouterr().err

    def test_interrupted_cli_run_resumes_byte_identical(self, capsys, monkeypatch):
        from repro.cli import main
        import repro.exec.context as ctx

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        calls = []
        original = ctx.execute_job

        def signalling_execute(job):
            result = original(job)
            calls.append(job.key())
            if len(calls) == 3:
                os.kill(os.getpid(), signal.SIGINT)
            return result

        monkeypatch.setattr(ctx, "execute_job", signalling_execute)
        assert main(["run", "fig3"]) == 130
        interrupted = capsys.readouterr()
        assert interrupted.out == ""  # no partial tables
        assert "resume with" in interrupted.err
        run_id = next(
            line.split("id=")[1].split()[0]
            for line in interrupted.err.splitlines()
            if "[run] id=" in line
        )

        monkeypatch.setattr(ctx, "execute_job", original)
        assert main(["run", "--resume", run_id]) == 0
        resumed = capsys.readouterr()
        assert "== fig3" in resumed.out
        # Settled jobs came from the store on resume.
        assert "cached" in resumed.err

        assert main(["run", "fig3"]) == 0
        clean = capsys.readouterr()
        assert resumed.out == clean.out  # byte-identical output

def test_journal_payloads_are_json_lines():
    journal = RunJournal.create(["fig5"])
    journal.record_batch({"k": {"status": "cached"}}, None)
    journal.close("completed")
    for line in journal.path.read_text(encoding="utf-8").splitlines():
        assert isinstance(json.loads(line), dict)
