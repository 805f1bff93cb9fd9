"""The entry codec and the records the result store hands out.

A result store maps a :class:`~repro.exec.job.SimJob`'s content hash to
a serialized :class:`~repro.sim.engine.SimResult`.  This module holds
what :class:`~repro.exec.stores.fs.FileResultStore` builds on:

* the payload codec (:func:`encode_entry` / :func:`decode_entry`), which
  validates every read against the engine invariants so a corrupted or
  invariant-violating entry is reported with a quarantine reason and
  never served;
* the :class:`Lease` record of the cross-process compute leases that
  arbitrate which of several processes computes a missed job
  (single-flight), and :func:`stale_after`, which decides when a
  crashed holder's lease may be taken over;
* the :class:`StoreCounters` and :class:`StoreStats` that ``cache
  stats`` renders;
* the environment variables that locate the store.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.common.errors import ReproError
from repro.exec.job import ENGINE_VERSION, SimJob
from repro.exec.validate import validate_result
from repro.sim.engine import SimResult

#: Environment variable overriding the store location.
STORE_ENV_VAR = "REPRO_CACHE_DIR"

#: Environment variable selecting the store (``fs``, ``fs://`` or
#: ``fs://PATH``).
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
# Entry payload codec
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
    invariants.  Every store read funnels through this, so "what counts
    as corrupt" is decided in one place.
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
    :meth:`~repro.exec.stores.fs.FileResultStore.stats` instead.
    """

    lease_contentions: int = 0
    stale_takeovers: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (sorted rendering is the caller's job)."""
        return {
            "lease_contentions": self.lease_contentions,
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


def stale_after(heartbeat: float, ttl: float, now: Optional[float] = None) -> bool:
    """Whether a lease heartbeat of age ``ttl`` seconds is stale."""
    moment = time.time() if now is None else now
    return (moment - heartbeat) > ttl
