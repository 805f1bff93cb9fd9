"""Contract tests for the filesystem result store.

:class:`TestStoreContract` pins the store's observable behaviour: hit
and miss, validation and quarantine, maintenance.  The mechanics below
it (fsync ordering, temp-file debris, the entry codec) get their own
classes, and the cross-process races live in ``test_store_stress.py``.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.common.errors import StoreError
from repro.exec import Scheduler, SimJob, execute_job
from repro.exec.faults import FaultPlan, FaultyStore, _violating
from repro.exec.stores import FileResultStore, StoreStats, make_store
from repro.exec.stores.base import STORE_BACKEND_ENV_VAR

ACCESSES = 4_000


@pytest.fixture
def store(tmp_path):
    """A store rooted at ``tmp_path/store``.

    :func:`_tear_entry` damages its entry files there directly.
    """
    return FileResultStore(tmp_path / "store")


def _job(seed: int = 1) -> SimJob:
    return SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)


def _put_killed_at_rename(store, job: SimJob, result) -> None:
    """Forked writer body: SIGKILL itself the moment ``put`` would publish."""
    os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
    store.put(job, result)


def _tear_entry(tmp_path, job: SimJob) -> None:
    """Cut the job's entry file in half, as a torn write would leave it."""
    path = FileResultStore(tmp_path / "store")._path(job.key())
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _fsyncs_of_run(monkeypatch, scheduler, batch) -> int:
    """How many times ``scheduler.run(batch)`` calls ``os.fsync`` here.

    Pool workers are forked and count into their own copies, so this is
    the parent process's count: every store write happens there.
    """
    fsyncs = []
    real_fsync = os.fsync

    def spy_fsync(fd):
        fsyncs.append(fd)
        return real_fsync(fd)

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", spy_fsync)
        scheduler.run(batch)
    return len(fsyncs)


# ----------------------------------------------------------------------
# The store contract
# ----------------------------------------------------------------------


class TestStoreContract:
    def test_miss_then_hit_round_trip(self, store):
        job = _job()
        assert store.get(job) is None
        assert job not in store
        result = execute_job(job)
        store.put(job, result)
        assert job in store
        assert store.get(job) == result

    def test_truncated_entry_quarantined_never_served(self, store, tmp_path):
        job = _job()
        store.put(job, execute_job(job))
        _tear_entry(tmp_path, job)
        assert store.get(job) is None
        assert store.stats().quarantined == 1
        assert store.get(job) is None  # stays a miss, not resurrected

    def test_semantic_corruption_quarantined(self, store):
        """A well-formed entry with impossible counters must not be served.

        ``put`` does not validate, so the invalid copy is stored as is;
        the read is what must catch it.
        """
        job = _job()
        store.put(job, _violating(execute_job(job)))
        assert store.get(job) is None
        assert store.stats().quarantined == 1
        assert list(store.quarantined_entries())

    def test_corrupt_entry_without_entry_reports_false(self, store, tmp_path):
        """Injected get-corruption of a missing entry neither fires nor writes.

        The fault stays armed for the first read that has an entry to
        damage; that read is then quarantined, never served.
        """
        job = _job()
        plan = FaultPlan(store_get_corrupt=1.0, scratch=str(tmp_path / "m"))
        faulty = FaultyStore(store, plan)
        assert faulty.get(job) is None
        assert not plan.fired("store.get.corrupt", job.key())
        assert store.stats().entries == 0
        store.put(job, execute_job(job))
        assert faulty.get(job) is None
        assert plan.fired("store.get.corrupt", job.key())
        assert store.stats().quarantined == 1

    def test_put_after_quarantine_recovers(self, store, tmp_path):
        job = _job()
        result = execute_job(job)
        store.put(job, result)
        _tear_entry(tmp_path, job)
        assert store.get(job) is None
        store.put(job, result)
        assert store.get(job) == result
        assert store.stats().quarantined == 1  # kept for post-mortem

    def test_simulated_crash_mid_put_publishes_nothing(self, store, tmp_path):
        job = _job()
        plan = FaultPlan(store_put_crash=1.0, scratch=str(tmp_path / "m"))
        with pytest.raises(StoreError, match="injected store crash"):
            FaultyStore(store, plan).put(job, execute_job(job))
        assert store.get(job) is None
        assert store.stats().entries == 0
        # The store stays fully usable afterwards.
        store.put(job, execute_job(job))
        assert store.get(job) is not None

    def test_prune_keep(self, store):
        result = execute_job(_job())
        for seed in range(5):
            store.put(_job(seed), result)
        assert store.prune(keep=2) == 3
        assert store.stats().entries == 2

    def test_second_put_of_a_key_replaces_the_entry(self, store):
        """Two writers of one job need no lock: the last rename wins whole."""
        job = _job()
        result = execute_job(job)
        first = store.put(job, result)
        second = store.put(job, result)
        assert first == second
        assert store.get(job) == result
        assert store.stats().entries == 1
        assert list(store.root.glob("*/.*.tmp")) == []

    def test_clear_keeps_the_run_journal(self, store):
        """``clear`` drops entries, not the ``runs/`` journals beside them."""
        job = _job()
        store.put(job, execute_job(job))
        journal = store.base / "runs" / "20260101-000000-abcd.jsonl"
        journal.parent.mkdir()
        journal.write_text('{"type": "start"}\n', encoding="utf-8")
        assert store.clear() == 1
        assert store.get(job) is None
        assert journal.read_text(encoding="utf-8") == '{"type": "start"}\n'

    def test_lease_files_of_an_earlier_version_are_inert(self, store):
        """A store once shared under compute leases keeps working as is.

        Nothing reads its ``leases/`` directory or ``.leases.lock`` any
        more, and no maintenance removes them.
        """
        job = _job()
        result = execute_job(job)
        store.put(job, result)
        lease = store.base / "leases" / f"{job.key()}.lease"
        lease.parent.mkdir()
        lease.write_text('{"owner": "host:1", "ttl": 30.0}', encoding="utf-8")
        lock = store.base / ".leases.lock"
        lock.touch()
        assert store.get(job) == result
        stats = store.stats()
        assert (stats.entries, stats.quarantined) == (1, 0)
        assert store.prune(keep=0) == 1
        assert store.clear() == 0
        assert lease.is_file() and lock.is_file()


class TestStoreStatsDescribe:
    """``cache stats`` prints exactly this one line."""

    @pytest.mark.parametrize(
        ("stats", "line"),
        [
            (
                StoreStats(root="/s/v1", entries=0, total_bytes=0),
                "0 entries, 0.0 KiB in /s/v1",
            ),
            (
                StoreStats(
                    root="/s/v1",
                    entries=2,
                    total_bytes=2048,
                    logical_bytes=10240,
                ),
                "2 entries, 2.0 KiB in /s/v1 (10.0 KiB logical)",
            ),
            (
                StoreStats(
                    root="/s/v1",
                    entries=1,
                    total_bytes=1024,
                    quarantined=3,
                    logical_bytes=1024,
                ),
                "1 entries, 1.0 KiB in /s/v1; 3 quarantined",
            ),
        ],
        ids=["empty", "packed", "quarantined"],
    )
    def test_describe(self, stats, line):
        assert stats.describe() == line


# ----------------------------------------------------------------------
# Store selection: make_store / $REPRO_STORE
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_default_is_fs(self, monkeypatch):
        monkeypatch.delenv(STORE_BACKEND_ENV_VAR, raising=False)
        assert isinstance(make_store(), FileResultStore)

    def test_spec_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_BACKEND_ENV_VAR, "redis://cachehost")
        assert isinstance(make_store("fs"), FileResultStore)
        store = make_store(f"fs://{tmp_path / 'spec'}")
        assert store.base == tmp_path / "spec"

    @pytest.mark.parametrize("name", ["redis", "sqlite", "net"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(StoreError, match="accepted forms: fs, fs://, or fs://PATH"):
            make_store(name)

    def test_url_roots_fs_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV_VAR, f"fs://{tmp_path / 'cache'}")
        store = make_store()
        assert isinstance(store, FileResultStore)
        assert store.base == tmp_path / "cache"

    def test_url_without_scheme_rejected(self):
        with pytest.raises(
            StoreError,
            match=r"unknown store backend '/no/scheme/here'.*accepted forms.*fs://PATH",
        ):
            make_store("/no/scheme/here")

    @pytest.mark.parametrize(
        "url",
        ["redis://somewhere", "sqlite:///x", "net://cachehost:4070"],
        ids=["redis", "sqlite", "net"],
    )
    def test_url_unknown_scheme_rejected(self, url):
        scheme = url.partition("://")[0]
        with pytest.raises(
            StoreError, match=rf"unknown store backend '{scheme}'.*accepted forms"
        ):
            make_store(url)

    def test_make_store_accepts_urls(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_BACKEND_ENV_VAR, raising=False)
        store = make_store(f"fs://{tmp_path / 'cache'}")
        assert isinstance(store, FileResultStore)
        assert store.base == tmp_path / "cache"


# ----------------------------------------------------------------------
# Filesystem backend mechanics: durability and the prune/get race
# ----------------------------------------------------------------------


class TestFileStoreDurability:
    def test_put_fsyncs_tmp_before_rename_and_dir_after(
        self, tmp_path, monkeypatch
    ):
        """The write protocol is write → fsync(tmp) → rename → fsync(dir)."""
        store = FileResultStore(tmp_path / "store")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        job = _job()
        store.put(job, execute_job(job))
        assert "fsync" in events[: events.index("rename")], (
            "temp file must be fsynced before the rename publishes it"
        )
        assert "fsync" in events[events.index("rename") + 1:], (
            "directory entry must be fsynced after the rename"
        )

    def test_cold_batch_fsyncs_only_its_entries(self, tmp_path, monkeypatch):
        """A computed job costs its put's two fsyncs and leaves only entries."""
        from repro.exec.job import ENGINE_VERSION

        base = tmp_path / "store"
        scheduler = Scheduler(jobs=1, store=FileResultStore(base))
        batch = [_job(seed) for seed in range(3)]
        fsyncs = _fsyncs_of_run(monkeypatch, scheduler, batch)
        assert scheduler.last_report.completed == 3
        assert fsyncs == 2 * 3  # temp file + directory, per entry
        assert [path.name for path in base.iterdir()] == [f"v{ENGINE_VERSION}"]

    def test_pooled_cold_batch_fsyncs_only_its_entries(
        self, tmp_path, monkeypatch
    ):
        """Workers only simulate; the parent's puts are the only fsyncs."""
        store = FileResultStore(tmp_path / "store")
        scheduler = Scheduler(jobs=2, store=store)
        batch = [_job(seed) for seed in range(3)]
        assert _fsyncs_of_run(monkeypatch, scheduler, batch) == 2 * 3
        assert scheduler.last_report.completed == 3
        assert store.stats().entries == 3

    def test_warm_batch_fsyncs_nothing(self, tmp_path, monkeypatch):
        store = FileResultStore(tmp_path / "store")
        batch = [_job(seed) for seed in range(3)]
        Scheduler(jobs=1, store=store).run(batch)
        rerun = Scheduler(jobs=1, store=store)
        assert _fsyncs_of_run(monkeypatch, rerun, batch) == 0
        assert rerun.last_report.cached == 3

    def test_duplicate_jobs_are_put_once(self, tmp_path, monkeypatch):
        store = FileResultStore(tmp_path / "store")
        scheduler = Scheduler(jobs=1, store=store)
        batch = [_job(1), _job(1), _job(2)]
        assert _fsyncs_of_run(monkeypatch, scheduler, batch) == 2 * 2
        assert scheduler.last_report.completed == 3  # occurrence-weighted
        assert store.stats().entries == 2

    def test_failed_job_is_never_put(self, tmp_path, monkeypatch):
        doomed = _job(2)

        def execute(job):
            if job == doomed:
                raise RuntimeError("simulated failure")
            return execute_job(job)

        store = FileResultStore(tmp_path / "store")
        scheduler = Scheduler(
            jobs=1, store=store, retries=0, strict=False, execute=execute
        )
        batch = [_job(1), doomed]
        assert _fsyncs_of_run(monkeypatch, scheduler, batch) == 2
        assert scheduler.last_report.failed == 1
        assert store.get(doomed) is None
        assert store.stats().entries == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_crash_mid_put_leaves_only_sweepable_debris(self, tmp_path):
        """A writer SIGKILLed between write and rename publishes nothing."""
        store = FileResultStore(tmp_path / "store")
        job = _job()
        writer = multiprocessing.get_context("fork").Process(
            target=_put_killed_at_rename, args=(store, job, execute_job(job))
        )
        writer.start()
        writer.join(60)
        if writer.is_alive():
            writer.kill()
        assert writer.exitcode == -signal.SIGKILL
        debris = list((tmp_path / "store").glob("v*/*/.*.tmp"))
        assert len(debris) == 1  # the unpublished temp file a crash strands
        assert store.get(job) is None  # never visible as an entry
        assert store.stats().entries == 0
        # clear() sweeps crash debris immediately.
        store.clear()
        assert not list((tmp_path / "store").glob("v*/*/.*.tmp"))

    def test_put_survives_concurrent_bucket_removal(self, tmp_path, monkeypatch):
        """A prune rmdir'ing the fan-out bucket mid-put is retried."""
        store = FileResultStore(tmp_path / "store")
        job = _job()
        real_replace = os.replace
        raised = {"count": 0}

        def racy_replace(src, dst):
            if raised["count"] == 0:
                raised["count"] += 1
                raise FileNotFoundError(
                    errno.ENOENT, "bucket swept by concurrent prune", dst
                )
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racy_replace)
        path = store.put(job, execute_job(job))
        assert raised["count"] == 1
        assert path.is_file()
        assert store.get(job) is not None

    def test_put_survives_version_dir_removal_between_mkdir_levels(
        self, tmp_path, monkeypatch
    ):
        """A prune rmdir'ing the fresh, empty version directory after
        ``mkdir`` made it but before it made the bucket is retried."""
        from pathlib import Path

        store = FileResultStore(tmp_path / "store")
        job = _job()
        result = execute_job(job)
        bucket = store._path(job.key()).parent
        real_mkdir = Path.mkdir
        swept = []

        def racy_mkdir(self, mode=0o777, parents=False, exist_ok=False):
            # ``Path.mkdir(parents=True)`` makes the missing version
            # directory, then calls ``self.mkdir(parents=False)`` for
            # the bucket: the moment a prune can sweep the former.
            if self == bucket and not parents and not swept:
                swept.append(self)
                os.rmdir(store.root)  # the concurrent prune's sweep
            return real_mkdir(self, mode, parents=parents, exist_ok=exist_ok)

        monkeypatch.setattr(Path, "mkdir", racy_mkdir)
        path = store.put(job, result)
        assert swept == [bucket]
        assert path.is_file()
        assert store.get(job) == result

    def test_put_raises_store_error_when_race_never_resolves(
        self, tmp_path, monkeypatch
    ):
        store = FileResultStore(tmp_path / "store")

        def always_gone(src, dst):
            raise FileNotFoundError(errno.ENOENT, "gone", dst)

        monkeypatch.setattr(os, "replace", always_gone)
        with pytest.raises(StoreError):
            store.put(_job(), execute_job(_job()))

    def test_get_racing_prune_is_a_clean_miss(self, tmp_path, monkeypatch):
        """An entry unlinked between the lookup and the read is a miss."""
        from pathlib import Path

        store = FileResultStore(tmp_path / "store")
        job = _job()
        path = store.put(job, execute_job(job))

        real_read_bytes = Path.read_bytes

        def pruned_read_bytes(self, *args, **kwargs):
            if self == path:
                # The concurrent prune wins the race: entry is gone.
                self.unlink(missing_ok=True)
            return real_read_bytes(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", pruned_read_bytes)
        assert store.get(job) is None  # miss, not an exception
        assert store.stats().quarantined == 0  # nothing got quarantined

    def test_get_racing_prune_enoent_oserror_is_a_clean_miss(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        store = FileResultStore(tmp_path / "store")
        job = _job()
        path = store.put(job, execute_job(job))

        def enoent_read_bytes(self, *args, **kwargs):
            if self == path:
                raise OSError(errno.ENOENT, "pruned mid-open", str(self))
            return Path.read_bytes(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", enoent_read_bytes)
        assert store.get(job) is None

    def test_quarantine_keeps_reason_sidecar(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        job = _job()
        store.put(job, _violating(execute_job(job)))
        assert store.get(job) is None
        sidecars = list(store.quarantine_dir.glob("*.reason"))
        assert len(sidecars) == 1
        assert "exceed" in sidecars[0].read_text(encoding="utf-8")


class TestEntryCodec:
    """The shared v2 entry codec: pack, read-back, and compat."""

    def test_round_trip(self):
        from repro.exec.stores.base import decode_entry, encode_entry

        job = _job()
        result = execute_job(job)
        payload = encode_entry(job, result)
        decoded, reason = decode_entry(payload, job)
        assert reason is None
        assert decoded is not None
        assert decoded.to_dict() == result.to_dict()

    def test_v1_plain_json_reads_back(self):
        """Entries written before the codec change decode transparently."""
        from repro.exec.stores.base import decode_entry
        from repro.exec.job import ENGINE_VERSION

        job = _job()
        result = execute_job(job)
        v1_text = json.dumps(
            {
                "engine_version": ENGINE_VERSION,
                "created": time.time(),
                "job": job.to_dict(),
                "result": result.to_dict(),
            },
            sort_keys=True,
        )
        for flavor in (v1_text, v1_text.encode("utf-8")):
            decoded, reason = decode_entry(flavor, job)
            assert reason is None
            assert decoded is not None
            assert decoded.to_dict() == result.to_dict()

    def test_v2_entry_with_a_created_time_reads_back(self):
        """Entries packed when the codec still wrote ``created`` decode."""
        import struct
        import zlib

        from repro.exec.job import ENGINE_VERSION
        from repro.exec.stores.base import ENTRY_MAGIC, decode_entry

        job = _job()
        result = execute_job(job)
        raw = json.dumps(
            {
                "engine_version": ENGINE_VERSION,
                "created": time.time(),
                "job": job.to_dict(),
                "result": result.to_dict(),
            },
            sort_keys=True,
        ).encode("utf-8")
        packed = ENTRY_MAGIC + struct.pack(">I", len(raw)) + zlib.compress(raw, 6)
        decoded, reason = decode_entry(packed, job)
        assert reason is None
        assert decoded is not None
        assert decoded.to_dict() == result.to_dict()

    def test_one_job_and_result_encode_to_identical_bytes(self):
        """An entry holds no timestamp: two puts publish the same bytes."""
        from repro.exec.stores.base import encode_entry, inflate_entry

        job = _job()
        result = execute_job(job)
        first = encode_entry(job, result)
        time.sleep(0.01)
        assert encode_entry(job, result) == first
        assert "created" not in json.loads(inflate_entry(first))

    def test_two_cold_batches_leave_byte_identical_stores(self, tmp_path):
        """Separate cold runs of one batch write the same v1/ trees."""
        from repro.exec.job import ENGINE_VERSION

        batch = [_job(seed) for seed in range(3)] + [
            SimJob.mix("mix2_1", "nucache", 2_000)
        ]
        trees = []
        for name in ("a", "b"):
            base = tmp_path / name
            scheduler = Scheduler(jobs=1, store=FileResultStore(base))
            scheduler.run(batch)
            assert scheduler.last_report.completed == len(batch)
            root = base / f"v{ENGINE_VERSION}"
            trees.append({
                str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()
            })
        assert len(trees[0]) == len(batch)
        assert trees[0] == trees[1]

    def test_pack_is_smaller_than_logical(self):
        from repro.exec.stores.base import (
            ENTRY_MAGIC,
            encode_entry,
            entry_logical_size,
            inflate_entry,
        )

        job = _job()
        payload = encode_entry(job, execute_job(job))
        assert payload.startswith(ENTRY_MAGIC)
        logical = entry_logical_size(payload)
        assert logical == len(inflate_entry(payload))
        assert len(payload) < logical

    def test_logical_size_of_v1_text_is_its_own_length(self):
        from repro.exec.stores.base import entry_logical_size

        assert entry_logical_size('{"a": 1}') == 8
        assert entry_logical_size(b'{"a": 1}') == 8

    def test_torn_pack_quarantine_reason(self):
        from repro.exec.stores.base import decode_entry, encode_entry

        job = _job()
        payload = encode_entry(job, execute_job(job))
        torn = payload[: len(payload) // 2]
        decoded, reason = decode_entry(torn, job)
        assert decoded is None
        assert reason == "unreadable or corrupt JSON (torn v2 pack)"

    def test_torn_pack_quarantines_on_disk(self, tmp_path):
        """A half-written v2 file is a miss + quarantine, not a crash."""
        store = FileResultStore(tmp_path / "store")
        job = _job()
        path = store.put(job, execute_job(job))
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert store.get(job) is None
        assert len(list(store.quarantined_entries())) == 1
