"""The abstract result-store contract every backend implements.

A result store maps a :class:`~repro.exec.job.SimJob`'s content hash to
a serialized :class:`~repro.sim.engine.SimResult`.  Backends differ in
*where* the bytes live (a local directory of entry files, or a server
reached over TCP), but they all honour the same contract:

* **Validated reads** — :meth:`AbstractResultStore.get` never serves a
  corrupted or invariant-violating entry; bad entries are quarantined
  (set aside for post-mortem, never deleted) and reported as a miss.
* **Atomic, durable writes** — a crash mid-``put`` can never publish a
  torn entry.
* **Cross-process leases** — :meth:`~AbstractResultStore.acquire_lease`
  arbitrates which of several processes computes a missed job
  (single-flight); leases carry owner + heartbeat metadata so a crashed
  holder's lease goes *stale* and can be taken over.
* **Failure is a signal, not an abort** — anything that makes the
  backend unusable raises :class:`StoreError`, which the scheduler
  treats as "compute without the cache", never as a batch failure.

The shared payload codec (:func:`encode_entry` / :func:`decode_entry`)
lives here so every backend applies byte-identical validation and
quarantine semantics.
"""

from __future__ import annotations

import abc
import json
import os
import socket
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.common.errors import ReproError
from repro.exec.job import ENGINE_VERSION, SimJob
from repro.exec.validate import validate_result
from repro.sim.engine import SimResult

#: Environment variable overriding the store location.
STORE_ENV_VAR = "REPRO_CACHE_DIR"

#: Environment variable selecting the store backend (``fs`` or a
#: ``from_url`` spec).
STORE_BACKEND_ENV_VAR = "REPRO_STORE"

#: Default time-to-live of a lease heartbeat: a lease whose heartbeat is
#: older than this is *stale* and may be taken over by another process.
DEFAULT_LEASE_TTL = 30.0


def default_store_dir() -> Path:
    """Resolve the store root from the environment (unversioned)."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "nucache-repro"


def lease_owner_id() -> str:
    """This process's lease-owner identity (``host:pid``).

    Stable for the process lifetime, unique across the machines that can
    share a store directory, and human-readable in postmortems.
    """
    return f"{socket.gethostname()}:{os.getpid()}"


# ----------------------------------------------------------------------
# Shared payload codec (identical validation semantics per backend)
# ----------------------------------------------------------------------

#: Magic prefix of a codec-v2 (zlib-packed) entry payload.
ENTRY_MAGIC = b"NUC2"

#: Byte length of the v2 header: magic + big-endian uncompressed size.
ENTRY_HEADER_LEN = len(ENTRY_MAGIC) + 4


def encode_entry(job: SimJob, result: SimResult) -> bytes:
    """Serialize one store entry (job + result + provenance).

    Codec v2: the sorted-keys JSON document is zlib-compressed behind a
    fixed header (``NUC2`` magic + 4-byte big-endian *uncompressed*
    length).  Entries are highly regular JSON, so the pack is roughly
    5× smaller on disk; the recorded length lets :func:`entry_logical_size`
    report the logical footprint without inflating anything.
    """
    raw = json.dumps(
        {
            "engine_version": ENGINE_VERSION,
            "created": time.time(),
            "job": job.to_dict(),
            "result": result.to_dict(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return ENTRY_MAGIC + struct.pack(">I", len(raw)) + zlib.compress(raw, 6)


def entry_logical_size(payload: Union[str, bytes]) -> int:
    """Uncompressed (logical) byte size of one encoded entry payload.

    v2 payloads record it in the header; v1 plain-text payloads *are*
    their logical bytes.  Damaged headers count as their stored size so
    stats never raise on a corrupt store.
    """
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if payload.startswith(ENTRY_MAGIC) and len(payload) >= ENTRY_HEADER_LEN:
        return int(
            struct.unpack(">I", payload[len(ENTRY_MAGIC):ENTRY_HEADER_LEN])[0]
        )
    return len(payload)


def inflate_entry(payload: Union[str, bytes]) -> bytes:
    """Raw JSON bytes of an encoded entry, whichever codec wrote it.

    Raises :class:`zlib.error` on a torn v2 pack; :func:`decode_entry`
    maps that to a quarantine reason.
    """
    if isinstance(payload, str):
        return payload.encode("utf-8")
    if payload.startswith(ENTRY_MAGIC):
        return zlib.decompress(payload[ENTRY_HEADER_LEN:])
    return payload


def decode_entry(
    text: Union[str, bytes], job: SimJob
) -> Tuple[Optional[SimResult], Optional[str]]:
    """Parse and validate one stored entry against its job.

    Accepts both codec versions — v2 zlib-packed bytes (``NUC2`` magic)
    and legacy v1 plain JSON text — so stores written before the codec
    change read back transparently.  Returns ``(result, None)`` for a
    healthy entry and ``(None, reason)`` for anything else — unparsable
    bytes, a malformed payload, or a result that fails the engine
    invariants.  Every backend funnels every read through this, so
    "what counts as corrupt" can never diverge between them.
    """
    try:
        raw = inflate_entry(text)
    except zlib.error:
        return None, "unreadable or corrupt JSON (torn v2 pack)"
    try:
        payload = json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        return None, "unreadable or corrupt JSON"
    try:
        result = SimResult.from_dict(payload["result"])
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            ReproError):
        return None, "malformed result payload"
    violations = validate_result(result, job)
    if violations:
        return None, "; ".join(violations[:3])
    return result, None


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Lease:
    """A held compute lease for one job key.

    Attributes:
        key: the job content hash the lease covers.
        owner: the holder's :func:`lease_owner_id`.
        acquired: wall-clock acquisition time.
        ttl: heartbeat time-to-live in seconds; a heartbeat older than
            this makes the lease stale (eligible for takeover).
        takeover: whether acquiring it displaced a stale lease.
    """

    key: str
    owner: str
    acquired: float
    ttl: float
    takeover: bool = False


@dataclass
class StoreCounters:
    """In-process robustness counters a store accumulates as it runs.

    These are *process-local* (they reset with the process); durable
    state — active leases, quarantined entries — is reported by
    :meth:`AbstractResultStore.stats` instead.
    """

    lease_contentions: int = 0
    stale_takeovers: int = 0
    reconnects: int = 0
    retried_requests: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (sorted rendering is the caller's job)."""
        return {
            "lease_contentions": self.lease_contentions,
            "reconnects": self.reconnects,
            "retried_requests": self.retried_requests,
            "stale_takeovers": self.stale_takeovers,
        }


@dataclass(frozen=True)
class StoreStats:
    """Summary of the store's durable footprint and lease state."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int = 0
    backend: str = "fs"
    leases_active: int = 0
    leases_stale: int = 0
    logical_bytes: int = 0

    def describe(self) -> str:
        """One-line human-readable summary."""
        kib = self.total_bytes / 1024.0
        line = f"{self.entries} entries, {kib:.1f} KiB in {self.root}"
        if self.logical_bytes and self.logical_bytes != self.total_bytes:
            logical_kib = self.logical_bytes / 1024.0
            line += f" ({logical_kib:.1f} KiB logical)"
        if self.quarantined:
            line += f"; {self.quarantined} quarantined"
        if self.leases_active or self.leases_stale:
            line += (
                f"; {self.leases_active} active lease(s)"
                f" ({self.leases_stale} stale)"
            )
        return line


class AbstractResultStore(abc.ABC):
    """One abstract API, two backends (filesystem and net).

    Concrete stores implement the durable operations; membership,
    counters, and the health rendering are shared here.  Every method
    that touches the backing medium raises :class:`StoreError` (or an
    ``OSError`` for the filesystem) when the medium is unusable — the
    scheduler degrades to compute-without-cache rather than aborting.
    """

    #: Short backend name (``fs``, ``net``) used by stats and the CLI.
    backend: str = "abstract"

    def __init__(self) -> None:
        self.counters = StoreCounters()

    # -- entries -------------------------------------------------------

    @abc.abstractmethod
    def get(self, job: SimJob) -> Optional[SimResult]:
        """Stored result for ``job``, or ``None`` on miss.

        A corrupted or invariant-violating entry is quarantined and
        reported as a miss; an entry deleted concurrently (a racing
        ``prune``) is a clean miss, never an exception.
        """

    @abc.abstractmethod
    def put(self, job: SimJob, result: SimResult) -> object:
        """Persist ``result`` under ``job``'s key, atomically and durably.

        Returns a backend-specific locator (a :class:`~pathlib.Path` for
        the filesystem store, the key for net).  Writes are not
        validated — every read is.
        """

    def __contains__(self, job: SimJob) -> bool:
        """Validated membership: never disagrees with :meth:`get`."""
        return self.get(job) is not None

    # -- maintenance ---------------------------------------------------

    @abc.abstractmethod
    def stats(self) -> StoreStats:
        """Entry count, byte footprint, quarantine and lease census."""

    @abc.abstractmethod
    def clear(self) -> int:
        """Delete every entry (all engine versions); returns the count."""

    @abc.abstractmethod
    def prune(
        self,
        max_age_days: Optional[float] = None,
        keep: Optional[int] = None,
    ) -> int:
        """Trim old-version / aged / overflow entries; returns the count."""

    @abc.abstractmethod
    def quarantined_entries(self) -> Iterator[object]:
        """Identifiers of quarantined entries (paths or keys)."""

    # -- leases --------------------------------------------------------

    @abc.abstractmethod
    def acquire_lease(
        self,
        key: str,
        ttl: float = DEFAULT_LEASE_TTL,
        owner: Optional[str] = None,
    ) -> Optional[Lease]:
        """Try to take the compute lease for ``key``.

        ``owner`` defaults to this process's :func:`lease_owner_id`; the
        network server passes the *client's* identity through so leases
        stay attributed fleet-wide.  Returns the :class:`Lease` on
        success (including a takeover of a stale lease, flagged via
        :attr:`Lease.takeover` and counted in
        :attr:`StoreCounters.stale_takeovers`), or ``None`` when another
        live process holds it (counted in
        :attr:`StoreCounters.lease_contentions`).
        """

    @abc.abstractmethod
    def renew_lease(self, lease: Lease) -> bool:
        """Refresh a held lease's heartbeat; False if no longer ours."""

    @abc.abstractmethod
    def release_lease(self, lease: Lease) -> bool:
        """Drop a held lease; False if it already expired or moved on."""

    @abc.abstractmethod
    def active_leases(self) -> List[Tuple[str, str, bool]]:
        """Current ``(key, owner, is_stale)`` lease census."""

    # -- health rendering ----------------------------------------------

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


def stale_after(heartbeat: float, ttl: float, now: Optional[float] = None) -> bool:
    """Whether a lease heartbeat of age ``ttl`` seconds is stale."""
    moment = time.time() if now is None else now
    return (moment - heartbeat) > ttl
