"""Filesystem result store: one JSON file per entry, crash-safe.

Results live as one JSON file per job under a versioned root::

    <cache dir>/v<ENGINE_VERSION>/<key[:2]>/<key>.json

where ``<cache dir>`` is ``$REPRO_CACHE_DIR`` if set, else
``~/.cache/nucache-repro``.  The two-character fan-out keeps directories
small for multi-thousand-entry stores.

Durability and concurrency:

* **Writes** are atomic *and* durable: the payload goes to a temp file
  that is flushed and fsynced, renamed over the target with
  ``os.replace``, and the directory entry is fsynced — a crash at any
  point either publishes the complete entry or nothing (a stranded temp
  file is swept by :meth:`FileResultStore.prune`), never a torn one.
* **Reads** are validated (parse, round-trip, engine invariants); a bad
  entry is quarantined to ``<cache dir>/quarantine/`` with a
  ``.reason`` sidecar and reported as a miss.  An entry unlinked by a
  concurrent ``prune`` mid-read is a clean miss, never an exception.
* **Leases** are ``O_EXCL``-created files under ``<cache dir>/leases/``
  carrying owner/PID/heartbeat metadata; a heartbeat older than the
  lease TTL marks it stale and any process may take it over.  Every
  read-then-modify of an existing lease file (takeover, renew, release,
  sweep) holds an advisory ``flock``, so no process ever deletes or
  overwrites a lease another process took over after its read.
* **Maintenance** (``prune``/``clear``) serializes on a second advisory
  ``flock`` so two maintainers never interleave destructively.
"""

from __future__ import annotations

import errno
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

try:  # pragma: no cover - platform availability, not logic
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

from repro.common.errors import StoreError
from repro.exec.job import ENGINE_VERSION, JobResult, SimJob
from repro.exec.stores.base import (
    DEFAULT_LEASE_TTL,
    ENTRY_HEADER_LEN,
    ENTRY_MAGIC,
    Lease,
    StoreCounters,
    StoreStats,
    decode_entry,
    default_store_dir,
    encode_entry,
    entry_logical_size,
    lease_owner_id,
    stale_after,
)

#: Subdirectory (of the store base) holding quarantined entries.
QUARANTINE_DIR_NAME = "quarantine"

#: Subdirectory (of the store base) holding lease files.
LEASES_DIR_NAME = "leases"

#: Lock file (in the store base) serializing lease read-then-modify steps.
LEASE_LOCK_NAME = ".leases.lock"

#: Lock file (in the store base) serializing ``prune``/``clear``.
MAINTENANCE_LOCK_NAME = ".maintenance.lock"

#: Temp files older than this are considered leaked by a crashed writer
#: and swept by :meth:`FileResultStore.prune`.
TMP_LEAK_AGE_SECONDS = 3600.0


def _fsync_path(path: Path) -> None:
    """Flush a directory entry to disk, tolerating filesystems that refuse."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. directories on some FSes
        pass
    finally:
        os.close(fd)


def _lease_is_stale(record: dict, default_ttl: float = DEFAULT_LEASE_TTL) -> bool:
    """Whether a lease record's heartbeat is older than its own TTL."""
    heartbeat = float(record.get("heartbeat") or 0.0)
    ttl = float(record.get("ttl") or default_ttl)
    return stale_after(heartbeat, ttl)


class FileResultStore:
    """Maps job content hashes to serialized results on the filesystem.

    Every method that touches the store directory raises
    :class:`StoreError` or an ``OSError`` when the medium is unusable;
    the scheduler then degrades to compute-without-cache rather than
    aborting the batch.
    """

    #: Backend name shown by :meth:`stats` and :meth:`describe_health`.
    backend = "fs"

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.counters = StoreCounters()
        base = Path(root) if root is not None else default_store_dir()
        self.base = base
        self.root = base / f"v{ENGINE_VERSION}"
        self.quarantine_dir = base / QUARANTINE_DIR_NAME
        self.leases_dir = base / LEASES_DIR_NAME

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("*/*.json")

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------

    def get(self, job: SimJob) -> Optional[JobResult]:
        """Stored result for ``job``, or ``None`` on miss.

        An entry that is corrupted (truncated write, bad JSON, missing
        fields) *or* fails the engine invariants is quarantined and
        reported as a miss, so callers fall back to recomputation and a
        bad result is never served.  An entry that vanishes mid-read —
        a concurrent ``prune`` or ``clear`` racing this process — is a
        clean miss, never an exception.
        """
        path = self._path(job.key())
        try:
            text = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            if exc.errno == errno.ENOENT:  # pruned between open and read
                return None
            self.quarantine(path, "unreadable entry")
            return None
        result, reason = decode_entry(text, job)
        if result is None:
            self.quarantine(path, reason or "corrupt entry")
            return None
        return result

    def put(self, job: SimJob, result: JobResult) -> Path:
        """Persist ``result`` under ``job``'s key (atomic and durable).

        The temp file is fsynced before the rename and the directory
        entry after it, so a crash can never publish a torn entry — the
        worst case is a stranded ``.tmp`` file that :meth:`prune`
        sweeps.  A concurrent ``prune`` sweeping a (momentarily empty)
        directory between our ``mkdir`` calls and the rename is retried.
        """
        path = self._path(job.key())
        payload = encode_entry(job, result)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        last_error: Optional[OSError] = None
        for _attempt in range(3):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(tmp, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
                _fsync_path(path.parent)
                return path
            except FileNotFoundError as exc:
                # A concurrent prune rmdir'ed a directory we had just
                # made; recreate and retry.
                last_error = exc
                continue
            finally:
                # A failure between write and replace must not strand the
                # temp file (after a successful replace this is a no-op).
                try:
                    tmp.unlink()
                except OSError:
                    pass
        raise StoreError(
            f"could not publish entry {job.key()[:12]}: {last_error}"
        )

    def __contains__(self, job: SimJob) -> bool:
        """Validated membership: never disagrees with :meth:`get`."""
        return self.get(job) is not None

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a bad entry aside (never delete) with a ``.reason`` sidecar.

        Returns the quarantined path, or ``None`` if the entry vanished
        or could not be moved.
        """
        if not path.is_file():
            return None
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            dest = self.quarantine_dir / path.name
            bump = 0
            while dest.exists():
                bump += 1
                dest = self.quarantine_dir / f"{path.name}.{bump}"
            os.replace(path, dest)
        except OSError:
            return None
        sidecar = dest.with_name(dest.name + ".reason")
        try:
            sidecar.write_text(
                f"quarantined {time.strftime('%Y-%m-%d %H:%M:%S')}\n"
                f"from: {path}\nreason: {reason}\n",
                encoding="utf-8",
            )
        except OSError:
            pass
        return dest

    def quarantined_entries(self) -> Iterator[Path]:
        """Quarantined entry files (excluding ``.reason`` sidecars)."""
        if not self.quarantine_dir.is_dir():
            return iter(())
        return (
            path
            for path in self.quarantine_dir.iterdir()
            if path.is_file() and not path.name.endswith(".reason")
        )

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------

    def _lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.lease"

    def _read_lease(self, path: Path) -> Optional[dict]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _write_lease_file(self, path: Path, record: dict, exclusive: bool) -> bool:
        """Create (``O_EXCL``) or atomically replace a lease file."""
        if exclusive:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            return True
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return True

    @contextmanager
    def _flock(self, lock_path: Path):
        """Hold an exclusive advisory cross-process lock on ``lock_path``.

        Uses ``flock`` (auto-released on process death, so a crashed
        holder can never deadlock the store); degrades to unlocked
        operation where ``fcntl`` or the lock file are unavailable.
        """
        handle = None
        try:
            self.base.mkdir(parents=True, exist_ok=True)
            handle = open(lock_path, "a+")
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            if handle is not None:
                handle.close()
            handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    if fcntl is not None:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                finally:
                    handle.close()

    def _unlink_if_stale(self, path: Path) -> bool:
        """Unlink the lease file at ``path`` if it is stale; True if unlinked.

        The re-read, the staleness check and the unlink happen under the
        lease lock: a contender that took the lease over after our last
        read left a fresh record, which this re-read sees and keeps.
        """
        with self._flock(self.base / LEASE_LOCK_NAME):
            record = self._read_lease(path)
            if record is None or not _lease_is_stale(record):
                return False
            try:
                path.unlink()
            except OSError:
                return False
            return True

    def acquire_lease(
        self,
        key: str,
        ttl: float = DEFAULT_LEASE_TTL,
        owner: Optional[str] = None,
    ) -> Optional[Lease]:
        """Take the compute lease for ``key`` via ``O_EXCL`` file creation.

        A stale holder (heartbeat older than its TTL — a crashed or hung
        process) is displaced: the stale file is unlinked and the
        ``O_EXCL`` create retried, so exactly one contender wins the
        takeover, flagged via :attr:`Lease.takeover` and counted in
        :attr:`StoreCounters.stale_takeovers`.  A live foreign lease
        returns ``None`` and is counted in
        :attr:`StoreCounters.lease_contentions`.

        ``owner`` defaults to this process's :func:`lease_owner_id`;
        tests pass one to stand in for another process.
        """
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        path = self._lease_path(key)
        owner = owner if owner is not None else lease_owner_id()
        now = time.time()
        record = {
            "key": key,
            "owner": owner,
            "pid": os.getpid(),
            "created": now,
            "heartbeat": now,
            "ttl": ttl,
        }
        displaced = False
        for _attempt in range(3):
            if self._write_lease_file(path, record, exclusive=True):
                return Lease(
                    key=key, owner=owner, acquired=now, ttl=ttl,
                    takeover=displaced,
                )
            existing = self._read_lease(path)
            if existing is None:
                # Unreadable or vanished between create and read; retry.
                continue
            if not _lease_is_stale(existing, ttl):
                break
            # Crashed/hung holder: displace and re-contend.  Only one of
            # several racers wins the O_EXCL create that follows.
            if self._unlink_if_stale(path) and not displaced:
                displaced = True
                self.counters.stale_takeovers += 1
        self.counters.lease_contentions += 1
        return None

    def renew_lease(self, lease: Lease) -> bool:
        """Refresh the heartbeat of a lease we hold; False if displaced."""
        path = self._lease_path(lease.key)
        with self._flock(self.base / LEASE_LOCK_NAME):
            existing = self._read_lease(path)
            if existing is None or existing.get("owner") != lease.owner:
                return False
            existing["heartbeat"] = time.time()
            try:
                self._write_lease_file(path, existing, exclusive=False)
            except OSError:
                return False
            return True

    def release_lease(self, lease: Lease) -> bool:
        """Drop a lease we hold; False if it expired or was taken over."""
        path = self._lease_path(lease.key)
        with self._flock(self.base / LEASE_LOCK_NAME):
            existing = self._read_lease(path)
            if existing is None or existing.get("owner") != lease.owner:
                return False
            try:
                path.unlink()
            except OSError:
                return False
            return True

    def active_leases(self) -> List[Tuple[str, str, bool]]:
        """Current ``(key, owner, is_stale)`` lease census."""
        if not self.leases_dir.is_dir():
            return []
        census: List[Tuple[str, str, bool]] = []
        for path in sorted(self.leases_dir.glob("*.lease")):
            record = self._read_lease(path)
            if record is None:
                continue
            census.append(
                (
                    str(record.get("key") or path.stem),
                    str(record.get("owner") or "?"),
                    _lease_is_stale(record),
                )
            )
        return census

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Entry count and byte footprint of the current version's store.

        Leaked ``.tmp`` files are never counted as entries; quarantined
        entries and the lease census are surfaced separately.
        """
        entries = 0
        total = 0
        logical = 0
        for path in self._entries():
            try:
                stored = path.stat().st_size
                with open(path, "rb") as handle:
                    header = handle.read(ENTRY_HEADER_LEN)
            except OSError:
                continue
            total += stored
            if header.startswith(ENTRY_MAGIC) and len(header) >= ENTRY_HEADER_LEN:
                logical += entry_logical_size(header)
            else:
                logical += stored  # v1 plain text is its own logical size
            entries += 1
        leases = self.active_leases()
        stale = sum(1 for _, _, is_stale in leases if is_stale)
        return StoreStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total,
            quarantined=sum(1 for _ in self.quarantined_entries()),
            backend=self.backend,
            leases_active=len(leases) - stale,
            leases_stale=stale,
            logical_bytes=logical,
        )

    def health(self) -> Dict[str, int]:
        """Deterministic robustness census for ``cache stats``.

        Combines the durable lease census with the process-local
        counters; every field is always present (zeros included) so the
        rendering is byte-stable.
        """
        leases = self.active_leases()
        stale = sum(1 for _, _, is_stale in leases if is_stale)
        census: Dict[str, int] = {
            "leases_active": len(leases) - stale,
            "leases_stale": stale,
        }
        census.update(self.counters.as_dict())
        return census

    def describe_health(self) -> str:
        """One-line ``key=value`` robustness summary (sorted, byte-stable)."""
        census = self.health()
        rendered = " ".join(f"{key}={census[key]}" for key in sorted(census))
        return f"robustness [{self.backend}]: {rendered}"

    def clear(self) -> int:
        """Delete every entry of every version.  Returns entries removed.

        Also drops quarantined entries, lease files, and any leaked temp
        files.  Serialized against concurrent maintainers.
        """
        removed = 0
        if not self.base.is_dir():
            return removed
        with self._flock(self.base / MAINTENANCE_LOCK_NAME):
            for path in self.base.glob("v*/*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            for directory in (self.quarantine_dir, self.leases_dir):
                if not directory.is_dir():
                    continue
                for path in list(directory.iterdir()):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                try:
                    directory.rmdir()
                except OSError:
                    pass
            self._sweep_tmp_files(min_age_seconds=0.0)
            self._sweep_empty_dirs()
        return removed

    def prune(
        self,
        max_age_days: Optional[float] = None,
        keep: Optional[int] = None,
    ) -> int:
        """Trim the store; returns the number of entries removed.

        Entries from *older engine versions* are always removed (they can
        never be read again), as are temp files leaked by crashed writers
        and lease files whose holders went stale.  Then, of the current
        version's entries, drop those older than ``max_age_days`` and —
        if ``keep`` is given — all but the ``keep`` most recently
        touched.  Serialized against concurrent maintainers.
        """
        removed = 0
        with self._flock(self.base / MAINTENANCE_LOCK_NAME):
            if self.base.is_dir():
                for version_dir in self.base.glob("v*"):
                    if version_dir.name == self.root.name:
                        continue
                    for path in version_dir.glob("*/*.json"):
                        try:
                            path.unlink()
                            removed += 1
                        except OSError:
                            continue
            self._sweep_tmp_files(min_age_seconds=TMP_LEAK_AGE_SECONDS)
            self._sweep_stale_leases()
            aged = []
            for path in self._entries():
                try:
                    aged.append((path.stat().st_mtime, path))
                except OSError:
                    continue
            aged.sort(reverse=True)  # newest first
            cutoff = (
                None if max_age_days is None
                else time.time() - max_age_days * 86400.0
            )
            for rank, (mtime, path) in enumerate(aged):
                too_old = cutoff is not None and mtime < cutoff
                overflow = keep is not None and rank >= keep
                if too_old or overflow:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
            self._sweep_empty_dirs()
        return removed

    def _sweep_tmp_files(self, min_age_seconds: float) -> int:
        """Remove ``.{name}.{pid}.tmp`` files stranded by crashed writers.

        ``min_age_seconds`` guards against racing a live writer mid-put;
        ``clear`` passes 0 (nothing should be writing during a clear).
        """
        if not self.base.is_dir():
            return 0
        swept = 0
        now = time.time()
        for path in self.base.glob("v*/*/.*.tmp"):
            try:
                if now - path.stat().st_mtime < min_age_seconds:
                    continue
                path.unlink()
                swept += 1
            except OSError:
                continue
        return swept

    def _sweep_stale_leases(self) -> int:
        """Unlink lease files whose heartbeats went stale (orphans)."""
        if not self.leases_dir.is_dir():
            return 0
        return sum(
            self._unlink_if_stale(path)
            for path in list(self.leases_dir.glob("*.lease"))
        )

    def _sweep_empty_dirs(self) -> None:
        if not self.base.is_dir():
            return
        for version_dir in sorted(self.base.glob("v*"), reverse=True):
            for bucket in sorted(version_dir.glob("*"), reverse=True):
                try:
                    bucket.rmdir()
                except OSError:
                    pass
            try:
                version_dir.rmdir()
            except OSError:
                pass
