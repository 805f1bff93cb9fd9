"""Net-store specifics: wire protocol, fault kinds, drain, degraded mode.

The backend-portable contract lives in ``test_stores.py`` (which runs
every contract test against a live server) and the cross-process races
in ``test_store_stress.py``.  This file pins what is unique to the
networked backend: framing and handshake, idempotent retries after
dropped replies, the circuit breaker, clean server drain on signals,
and the scheduler completing byte-identical batches when the server is
killed mid-run.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.common.errors import StoreError
from repro.exec import Scheduler, SimJob, execute_job
from repro.exec.faults import FaultPlan, FaultyStore
from repro.exec.stores import FileResultStore, NetResultStore, StoreServer
from repro.exec.stores.net import (
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    parse_address,
    recv_frame,
    send_frame,
)

ACCESSES = 1_000


def _grid(count: int = 4):
    return [
        SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)
        for seed in range(count)
    ]


def _healthy_results(batch):
    return [execute_job(job) for job in batch]


def _free_port() -> int:
    """A TCP port that was free a moment ago (for unreachable targets)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture
def live(tmp_path):
    """A live fs-backed server plus one connected client."""
    backing = FileResultStore(tmp_path / "store")
    server = StoreServer(backing, port=0)
    server.start()
    host, port = server.address
    client = NetResultStore(f"{host}:{port}")
    yield server, client, backing
    client.close()
    server.close()


class _CountingBacking(FileResultStore):
    """Backing store that counts real ``put`` applications."""

    def __init__(self, base) -> None:
        super().__init__(base)
        self.put_calls = 0

    def put(self, job, result):
        self.put_calls += 1
        return super().put(job, result)


# ----------------------------------------------------------------------
# Framing and handshake
# ----------------------------------------------------------------------


class TestWireProtocol:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"op": "ping", "n": 7})
            assert recv_frame(right) == {"n": 7, "op": "ping"}
        finally:
            left.close()
            right.close()

    def test_oversized_frame_length_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ValueError, match="frame too large"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_object_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            data = b"[1, 2, 3]"
            left.sendall(struct.pack(">I", len(data)) + data)
            with pytest.raises(ValueError, match="not an object"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_port_out_of_range_rejected(self):
        with pytest.raises(StoreError, match="out of range"):
            parse_address("host:70000")

    def test_server_rejects_version_mismatch(self, live):
        server, _client, _backing = live
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            send_frame(sock, {"op": "hello", "proto": 99})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["ok"] is False
        assert (
            f"protocol version mismatch: server speaks v{PROTO_VERSION}, "
            "client sent v99 — upgrade the older side" in reply["error"]
        )

    def test_server_requires_hello_first(self, live):
        server, _client, _backing = live
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            send_frame(sock, {"op": "ping"})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["ok"] is False
        assert "expected hello frame" in reply["error"]

    def test_client_surfaces_handshake_rejection(self):
        """A refusing server turns into one clear, unretried StoreError."""
        gate = socket.socket()
        gate.bind(("127.0.0.1", 0))
        gate.listen(1)
        port = gate.getsockname()[1]

        def _reject_once():
            conn, _addr = gate.accept()
            recv_frame(conn)  # the client's hello
            send_frame(conn, {
                "ok": False,
                "error": "protocol version mismatch: server speaks v99, "
                         f"client sent v{PROTO_VERSION} — upgrade the "
                         "older side",
            })
            conn.close()

        thread = threading.Thread(target=_reject_once, daemon=True)
        thread.start()
        client = NetResultStore(f"127.0.0.1:{port}", timeout=5.0)
        try:
            with pytest.raises(
                StoreError,
                match="rejected handshake.*protocol version mismatch",
            ):
                client.stats()
            assert client.counters.retried_requests == 0
        finally:
            client.close()
            gate.close()
            thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Retries, idempotency, breaker
# ----------------------------------------------------------------------


class TestFaultKinds:
    def test_dropped_reply_put_is_retried_but_applied_once(self, tmp_path):
        """The tentpole idempotency property, end to end.

        A read timeout after the request was sent means the server may
        have applied it; the client resends the same request id and the
        server answers from its idempotency map without a second apply.
        """
        backing = _CountingBacking(tmp_path / "store")
        server = StoreServer(backing, port=0)
        server.start()
        host, port = server.address
        client = NetResultStore(f"{host}:{port}")
        try:
            job = _grid(1)[0]
            result = execute_job(job)
            client.inject_net_fault("net.read.timeout")
            assert client.put(job, result) == job.key()
            assert backing.put_calls == 1  # applied exactly once
            assert client.counters.retried_requests == 1
            assert client.counters.reconnects == 1
            assert client.get(job) == result  # and it really landed
        finally:
            client.close()
            server.close()

    def test_conn_refused_is_retried_and_counted(self, live):
        _server, client, _backing = live
        client.stats()  # establish the first connection
        client.close()  # force the next op to reconnect
        client.inject_net_fault("net.conn.refused")
        client.stats()  # refused once, then reconnects fine
        assert client.counters.retried_requests == 1
        assert client.counters.reconnects == 1

    def test_corrupt_reply_is_retried(self, live):
        _server, client, _backing = live
        job = _grid(1)[0]
        client.put(job, execute_job(job))
        client.inject_net_fault("net.reply.corrupt")
        assert client.get(job) is not None
        assert client.counters.retried_requests == 1

    def test_server_crash_fault_fails_fast(self, live):
        _server, client, _backing = live
        client.stats()
        client.inject_net_fault("net.server.crash")
        start = time.monotonic()
        with pytest.raises(StoreError, match="is down"):
            client.stats()
        assert time.monotonic() - start < 1.0  # latched, no retry ladder
        assert client.counters.retried_requests == 0

    def test_server_side_error_is_never_retried(self, live):
        _server, client, _backing = live
        with pytest.raises(StoreError, match="unknown op"):
            client._request("bogus-op")
        assert client.counters.retried_requests == 0

    def test_server_answers_no_chaos_ops(self, live):
        """No client can damage entries through the server."""
        _server, client, backing = live
        job = _grid(1)[0]
        client.put(job, execute_job(job))
        with pytest.raises(StoreError, match="unknown op 'corrupt'"):
            client._request(
                "corrupt", {"key": job.key(), "mode": "truncate"}, mutating=True
            )
        assert backing.get(job) is not None

    def test_unknown_fault_kind_rejected(self, live):
        _server, client, _backing = live
        with pytest.raises(ValueError, match="unknown net fault kind"):
            client.inject_net_fault("net.gremlins")

    def test_faultplan_arms_net_kinds_through_faultystore(self, live):
        """``REPRO_FAULTS=net.reply.corrupt=1`` reaches the client hook."""
        _server, client, _backing = live
        plan = FaultPlan.parse("net.reply.corrupt")
        assert plan.net_reply_corrupt == 1.0
        store = FaultyStore(client, plan)
        job = _grid(1)[0]
        store.put(job, execute_job(job))
        assert store.get(job) is not None
        assert client.counters.retried_requests >= 1


class TestBreakerAndUnreachable:
    def test_unreachable_target_is_one_clear_error(self):
        client = NetResultStore(
            f"127.0.0.1:{_free_port()}", timeout=0.5, retries=0
        )
        with pytest.raises(
            StoreError,
            match=r"unreachable for stats after 1 attempts.*"
                  r"accepted form: net://HOST:PORT",
        ):
            client.stats()

    def test_breaker_opens_then_reprobes_a_restarted_server(self, tmp_path):
        port = _free_port()
        client = NetResultStore(f"127.0.0.1:{port}", timeout=0.5, retries=0)
        for _attempt in range(2):  # exhaust the breaker threshold
            with pytest.raises(StoreError, match="unreachable"):
                client.stats()
        with pytest.raises(StoreError, match="circuit open"):
            client.stats()  # fails fast, no connection attempt

        server = StoreServer(
            FileResultStore(tmp_path / "store"), port=port
        )
        server.start()
        try:
            # The breaker re-probes every few ops; within a bounded
            # number of calls the restarted server is picked up again.
            for _attempt in range(32):
                try:
                    client.stats()
                    break
                except StoreError:
                    continue
            else:
                pytest.fail("breaker never re-probed the restarted server")
            client.stats()  # and stays closed afterwards
        finally:
            client.close()
            server.close()


# ----------------------------------------------------------------------
# Degraded mode and drain
# ----------------------------------------------------------------------


class TestDegradedMode:
    def test_injected_server_crash_run_is_byte_identical(self, live):
        _server, client, _backing = live
        batch = _grid()
        client.inject_net_fault("net.server.crash")
        scheduler = Scheduler(jobs=1, store=client)
        results = scheduler.run(batch)
        report = scheduler.last_report
        assert report.completed == len(batch)
        assert report.failed == 0
        assert report.degraded > 0
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]

    def test_server_closed_mid_run_completes_byte_identical(self, tmp_path):
        """The server disappears for real mid-batch; the run still lands."""
        server = StoreServer(FileResultStore(tmp_path / "store"), port=0)
        server.start()
        host, port = server.address
        client = NetResultStore(f"{host}:{port}", timeout=1.0, retries=0)
        batch = _grid()
        calls = {"n": 0}

        def _execute_and_kill(job):
            calls["n"] += 1
            if calls["n"] == 1:
                server.close()  # the server dies after the first compute
            return execute_job(job)

        scheduler = Scheduler(jobs=1, store=client, execute=_execute_and_kill)
        results = scheduler.run(batch)
        report = scheduler.last_report
        client.close()
        assert report.completed == len(batch)
        assert report.failed == 0
        assert report.degraded > 0
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]

    def test_client_mid_drain_sees_storeerror_not_a_hang(self, live):
        server, client, _backing = live
        client.stats()  # a healthy, connected client
        server.close()
        start = time.monotonic()
        with pytest.raises(StoreError):
            NetResultStore(
                f"{client.host}:{client.port}", timeout=0.5, retries=0
            ).stats()
        assert time.monotonic() - start < 5.0

    def test_close_releases_held_leases(self, tmp_path):
        backing = FileResultStore(tmp_path / "store")
        server = StoreServer(backing, port=0)
        server.start()
        host, port = server.address
        client = NetResultStore(f"{host}:{port}")
        assert client.acquire_lease("some-key", ttl=60.0) is not None
        assert len(backing.active_leases()) == 1
        client.close()
        server.close()
        assert backing.active_leases() == []


# ----------------------------------------------------------------------
# The `store serve` CLI
# ----------------------------------------------------------------------


def _spawn_serve(tmp_path, target=None, extra=()):
    """Start ``nucache-repro store serve`` and return (proc, host, port)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "default-cache")
    cmd = [
        sys.executable, "-m", "repro.cli", "store", "serve",
        target if target is not None else str(tmp_path / "store"),
        "--port", "0", *extra,
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, bufsize=1, env=env,
    )
    banner = proc.stdout.readline().strip()
    listening = proc.stdout.readline().strip()
    assert listening.startswith("listening on "), (banner, listening)
    host, _colon, port = listening.removeprefix("listening on ").rpartition(":")
    return proc, banner, host, int(port)


@pytest.mark.skipif(os.name != "posix", reason="signal tests need POSIX")
class TestServeCLI:
    def test_sigterm_drains_releases_leases_and_exits_zero(self, tmp_path):
        proc, banner, host, port = _spawn_serve(tmp_path)
        try:
            assert banner.startswith("serving fs store ")
            client = NetResultStore(f"{host}:{port}", timeout=2.0, retries=0)
            job = _grid(1)[0]
            client.put(job, execute_job(job))
            assert client.acquire_lease(job.key(), ttl=300.0) is not None
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "drained; leases released; bye" in out
            # The orphanable lease was released on the way out.
            assert FileResultStore(tmp_path / "store").active_leases() == []
            # A client of the gone server gets a clean error, not a hang.
            start = time.monotonic()
            with pytest.raises(StoreError, match="unreachable"):
                client.stats()
            assert time.monotonic() - start < 10.0
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigkilled_server_mid_run_is_byte_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL the real server mid-batch."""
        proc, _banner, host, port = _spawn_serve(tmp_path)
        client = NetResultStore(f"{host}:{port}", timeout=1.0, retries=0)
        batch = _grid()
        calls = {"n": 0}

        def _execute_and_sigkill(job):
            calls["n"] += 1
            if calls["n"] == 1:
                proc.kill()  # SIGKILL: no drain, no goodbye
                proc.wait()
            return execute_job(job)

        try:
            scheduler = Scheduler(
                jobs=1, store=client, execute=_execute_and_sigkill
            )
            results = scheduler.run(batch)
            report = scheduler.last_report
            assert report.completed == len(batch)
            assert report.failed == 0
            assert report.degraded > 0
            healthy = _healthy_results(batch)
            assert [r.to_dict() for r in results] == [
                r.to_dict() for r in healthy
            ]
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_serves_fs_url_spec(self, tmp_path):
        target = f"fs://{tmp_path / 'store'}"
        proc, banner, host, port = _spawn_serve(tmp_path, target=target)
        try:
            assert banner == f"serving fs store {tmp_path / 'store'}"
            client = NetResultStore(f"{host}:{port}", timeout=2.0)
            job = _grid(1)[0]
            client.put(job, execute_job(job))
            stats = client.stats()
            assert stats.entries == 1
            assert stats.backend == "net"
            assert stats.root.startswith(f"net://{host}:{port} (")
            client.close()
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_serve_rejects_net_spec(self):
        from repro.cli import main

        assert main(["store", "serve", "net://somewhere:4070"]) == 2
