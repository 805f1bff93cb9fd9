"""Launch one workload process, measure it from outside, check its output.

A :class:`Launch` is what the runner can observe of a child without
reaching into it: wall clock from spawn to exit, the moment its
``[run] id=`` stderr line arrived (set-up done), ``os.wait4`` resource
usage (user + sys CPU and peak RSS, including pool workers the child
reaped), its stdout, the CLI's ``[exec]`` stderr lines and the run
journal the ``[run]`` line points at.  :class:`Tally` turns launches
into the ``attempted``/``failed`` counts of the result line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, List, Mapping, Optional, Sequence

RUN_LINE_RE = re.compile(r"^\[run\] id=(?P<run_id>\S+) journal=(?P<path>.+)$")
EXEC_LINE_RE = re.compile(
    r"^\[exec\] (?P<experiment>\S+): (?P<total>\d+) jobs: (?P<computed>\d+) computed, "
    r"(?P<cached>\d+) cached, (?P<failed>\d+) failed \((?P<retried>\d+) retried\)"
)
SECTION_RE = re.compile(r"^== (?P<experiment>[^:]+): ", re.MULTILINE)


@dataclass
class Launch:
    """One finished child process, as seen from outside."""

    exit_code: int
    wall_s: float
    setup_s: Optional[float]
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool = False

    @property
    def digest(self) -> str:
        """sha256 of the child's stdout."""
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(
    argv: Sequence[str], env: Mapping[str, str], cwd: Path, timeout: float,
    cpus: Optional[Collection[int]] = None,
) -> Launch:
    """Run ``argv`` to completion in its own process group and measure it.

    The child is waited for without being reaped first, so its process
    group (pool workers included) can be killed while its id cannot be
    reused; then it is reaped with ``os.wait4`` for its resource usage.
    A child still running after ``timeout`` seconds is killed.  With
    ``cpus`` the child, and every process it starts, runs only on them.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), env=dict(env), cwd=str(cwd), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    setup_at: List[float] = []
    err_lines: List[str] = []
    out_chunks: List[bytes] = []

    def read_stderr() -> None:
        for raw in proc.stderr:  # type: ignore[union-attr]
            if not setup_at and raw.startswith(b"[run] id="):
                setup_at.append(time.perf_counter())
            err_lines.append(raw.decode("utf-8", "replace"))

    def read_stdout() -> None:
        out_chunks.append(proc.stdout.read())  # type: ignore[union-attr]

    readers = [threading.Thread(target=read_stderr), threading.Thread(target=read_stdout)]
    for reader in readers:
        reader.start()
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        _kill_group(proc.pid)

    timer = threading.Timer(timeout, expire)
    timer.start()
    reaped = False
    try:
        if cpus:
            os.sched_setaffinity(proc.pid, cpus)
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        ended = time.perf_counter()
        _kill_group(proc.pid)  # stragglers the child left behind
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in readers:
            reader.join()
        proc.stdout.close()  # type: ignore[union-attr]
        proc.stderr.close()  # type: ignore[union-attr]
    return Launch(
        exit_code=proc.returncode,
        wall_s=ended - started,
        setup_s=setup_at[0] - started if setup_at else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=b"".join(out_chunks).decode("utf-8", "replace"),
        stderr="".join(err_lines),
        timed_out=expired.is_set(),
    )


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------


def parse_exec_lines(stderr: str) -> List[Dict[str, object]]:
    """The CLI's ``[exec] <experiment>: N jobs: ...`` summaries."""
    rows: List[Dict[str, object]] = []
    for line in stderr.splitlines():
        match = EXEC_LINE_RE.match(line)
        if match:
            row: Dict[str, object] = {"experiment": match["experiment"]}
            for key in ("total", "computed", "cached", "failed", "retried"):
                row[key] = int(match[key])
            rows.append(row)
    return rows


def journal_path(stderr: str) -> Optional[Path]:
    """The journal named by the ``[run] id=... journal=...`` line."""
    for line in stderr.splitlines():
        match = RUN_LINE_RE.match(line)
        if match:
            return Path(match["path"])
    return None


def parse_summaries(stdout: str) -> Dict[str, Dict[str, float]]:
    """``summary: key=value, ...`` lines, keyed by the section they close."""
    summaries: Dict[str, Dict[str, float]] = {}
    current = None
    for line in stdout.splitlines():
        section = SECTION_RE.match(line)
        if section:
            current = section["experiment"]
        elif line.startswith("summary: ") and current is not None:
            pairs = (part.split("=", 1) for part in line[len("summary: "):].split(", "))
            summaries[current] = {key: float(value) for key, value in pairs}
    return summaries


def split_sections(stdout: str) -> List[str]:
    """Per-experiment output blocks as the CLI digests them.

    ``run`` prints each experiment's text followed by a blank line;
    the journal's ``output_sha256`` covers the text alone.
    """
    starts = [match.start() for match in SECTION_RE.finditer(stdout)] + [len(stdout)]
    return [stdout[a:b].rstrip("\n") for a, b in zip(starts, starts[1:])]


@dataclass
class Journal:
    """What a run journal says about its run."""

    #: Status of the ``end`` record (``None`` if the run never ended).
    status: Optional[str] = None
    #: Experiments the ``start`` record announced, in order.
    experiments: List[str] = field(default_factory=list)
    #: experiment -> ``{status, output_sha256, elapsed}`` of its end record.
    ended: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Experiments that submitted at least one scheduler batch.
    batched: List[str] = field(default_factory=list)


def read_journal(path: Path) -> Journal:
    """Digest a run journal; unparsable lines are skipped, as the program does."""
    journal = Journal()
    current = None
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        kind = record.get("record")
        if kind == "start":
            journal.experiments = list(record.get("experiments", []))
        elif kind == "experiment_start":
            current = record.get("experiment")
        elif kind == "batch" and current is not None and current not in journal.batched:
            journal.batched.append(current)
        elif kind == "experiment_end":
            journal.ended[record.get("experiment")] = {
                key: record.get(key) for key in ("status", "output_sha256", "elapsed")
            }
        elif kind == "end":
            journal.status = record.get("status")
    return journal


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------


def launch_problems(launch: Launch, expected_digest: Optional[str],
                    all_cached: bool = False) -> List[str]:
    """Why a launch does not count as a correct reproduction (empty if it does).

    Checks the exit code, the stdout digest (when one is expected), and
    that the run journal completed every experiment with exactly the
    text the launch printed.  With ``all_cached`` the ``[exec]`` lines
    must report no computed job: every lookup hit the store.
    """
    problems: List[str] = []
    if all_cached:
        computed = sum(int(row["computed"]) for row in parse_exec_lines(launch.stderr))
        if computed:
            problems.append(f"{computed} jobs computed, expected every one cached")
    if launch.timed_out:
        problems.append("timed out")
    if launch.exit_code != 0:
        problems.append(f"exit code {launch.exit_code}")
    if expected_digest is not None and launch.digest != expected_digest:
        problems.append(f"stdout sha256 {launch.digest[:12]} != expected {expected_digest[:12]}")
    path = journal_path(launch.stderr)
    if path is None:
        problems.append("no [run] line on stderr")
        return problems
    try:
        journal = read_journal(path)
    except OSError as exc:
        problems.append(f"journal unreadable: {exc}")
        return problems
    if journal.status != "completed":
        problems.append(f"journal status {journal.status!r}")
    sections = split_sections(launch.stdout)
    if len(sections) != len(journal.experiments):
        problems.append(f"{len(sections)} output sections for "
                        f"{len(journal.experiments)} experiments")
    for experiment, text in zip(journal.experiments, sections):
        end = journal.ended.get(experiment, {})
        if end.get("status") != "ok":
            problems.append(f"{experiment}: journal status {end.get('status')!r}")
        elif end.get("output_sha256") != hashlib.sha256(text.encode("utf-8")).hexdigest():
            problems.append(f"{experiment}: journal digest does not match stdout")
    return problems


@dataclass
class Tally:
    """Attempted and failed work across a run's launches.

    Every launch is one attempt, plus one per scheduler job its
    ``[exec]`` lines report.  A failed job counts once; a launch with a
    problem (see :func:`launch_problems`) counts once more.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, launch: Launch, expected_digest: Optional[str], label: str,
            all_cached: bool = False) -> List[str]:
        """Account for one launch; returns its problems."""
        rows = parse_exec_lines(launch.stderr)
        failed_jobs = sum(int(row["failed"]) for row in rows)
        problems = launch_problems(launch, expected_digest, all_cached)
        self.attempted += 1 + sum(int(row["total"]) for row in rows)
        self.failed += failed_jobs + (1 if problems else 0)
        if failed_jobs:
            problems.append(f"{failed_jobs} failed jobs")
        self.problems.extend(f"{label}: {problem}" for problem in problems)
        return problems

    @property
    def correct(self) -> bool:
        """No job failed and every launch checked out."""
        return self.failed == 0 and not self.problems
