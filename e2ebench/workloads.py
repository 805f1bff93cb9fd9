"""The workloads, and how one benchmark run measures or traces them.

The load is a closed loop with one client: each launch is one process
that submits a fixed job grid and waits for all of it, with at most two
worker processes and no network.  Every launch gets a fresh store
directory; the inherited ``REPRO_*`` environment is dropped first, so
the calling shell cannot change what is measured.  The default engine
is what gets measured.

Both workloads are the CLI's fixed experiment grid (``run all``, which
uses the program's ``DEFAULT_SEED``), so every benchmark seed gives the
same inputs and the output is pinned at every seed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from e2ebench.launch import (
    Journal,
    Launch,
    Tally,
    journal_path,
    parse_summaries,
    read_journal,
    run_process,
)
from e2ebench.layers import breakdown, layer_metrics, read_spans
from e2ebench.spec import ROOT
from e2ebench.speed import REFERENCE_S, SpeedProbe

RUN_PY = ROOT / "e2ebench" / "run.py"
#: Where runs keep their temporary stores, inside the checkout.
SCRATCH_DIR = ROOT / ".e2ebench-tmp"

#: The measured command: all 19 experiment drivers, on short traces
#: (``REPRO_SCALE`` below), with two pool workers.
EXPERIMENTS = ("all",)
RUN_ARGS = ("run", *EXPERIMENTS, "--jobs", "2")
SCALE = "0.05"
#: stdout sha256 of ``REPRO_SCALE=0.05 nucache-repro run all``.
PIN = "9df9c2983e0c10d08c5726aeef571cc6fe8af5e3c663fc8e6b5464f08a60facd"

#: Set-up probes (``run table1`` launches) per measuring run.
SETUP_PROBES = 7
#: A run must end within this many seconds of starting.
RUN_DEADLINE_S = 170.0

T = TypeVar("T")


class BenchError(RuntimeError):
    """A run could not produce its metrics."""


@dataclass(frozen=True)
class Workload:
    """One declared workload."""

    name: str
    #: Launch against a store a cold launch filled.
    warm: bool
    #: CPUs the measured launches are confined to and probed on: the
    #: ones they keep busy.  A warm launch computes nothing, so no pool
    #: starts and it is serial whatever its ``--jobs``.
    cpus: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("all-warm", warm=True, cpus=1),
        Workload("all-cold", warm=False, cpus=2),
    )
}


def sources_digest() -> str:
    """A digest of the program's sources: the name of its warm store template."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat(seconds: float, once: Callable[[], T]) -> List[T]:
    """Call ``once`` at least once, and again while another call of the
    last one's length would still end within ``seconds``."""
    results: List[T] = []
    started = time.monotonic()
    last = 0.0
    while not results or time.monotonic() - started + last <= seconds:
        begun = time.monotonic()
        results.append(once())
        last = time.monotonic() - begun
    return results


class Session:
    """One run of one workload: scratch space, launches, correctness tally."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        SCRATCH_DIR.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_DIR))
        self.tally = Tally()
        self._stores = 0

    def close(self) -> None:
        """Remove the scratch space (and its parent, once empty)."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass

    # -- launching ----------------------------------------------------

    def env(self, store: Path) -> Dict[str, str]:
        """The child environment: no inherited ``REPRO_*``, a fresh store."""
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(store)
        env["REPRO_SCALE"] = SCALE
        env["TMPDIR"] = str(self.scratch)
        return env

    def store(self, template: Optional[Path] = None) -> Path:
        """A fresh store directory, empty or a copy of ``template``."""
        self._stores += 1
        path = self.scratch / f"store-{self._stores}"
        if template is None:
            path.mkdir()
        else:
            shutil.copytree(template, path)
        return path

    def launch(self, argv: List[str], store: Path, label: str, check_output: bool,
               cpus: Optional[Sequence[int]] = None) -> Launch:
        """Run one child against ``store``, on ``cpus`` if given, and account for it.

        With ``check_output`` the stdout must match :data:`PIN`.  On the
        warm workload every launch but the fill must compute no job.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f}s")
        launch = run_process(argv, self.env(store), ROOT, remaining, cpus)
        all_cached = self.workload.warm and label != "fill"
        problems = self.tally.add(launch, PIN if check_output else None, label, all_cached)
        for problem in problems:
            print(f"[e2ebench] {self.workload.name} {label}: {problem}", file=sys.stderr)
        if problems:
            sys.stderr.write("".join(launch.stderr.splitlines(keepends=True)[-5:]))
        return launch

    def workload_argv(self) -> List[str]:
        """The measured command."""
        return [sys.executable, "-m", "repro.cli", *RUN_ARGS]

    def probe_argv(self) -> List[str]:
        """A ``run`` launch that does the CLI's set-up and (almost) nothing else."""
        return [sys.executable, "-m", "repro.cli", "run", "table1"]

    def traced_argv(self, spans: Path) -> List[str]:
        """The workload in-process at ``--jobs 1`` under the layer tracer."""
        return [sys.executable, str(RUN_PY), "child", "--spans", str(spans), *EXPERIMENTS]

    def prepare(self) -> Optional[Path]:
        """Find or fill the warm workload's store template; warm the page cache.

        Returns the template (``None`` for a cold workload).  A template
        is filled by one cold launch and kept under :data:`SCRATCH_DIR`
        for the later runs of the same sources, so that a warm run does
        not pay for a cold ``run all`` every time.
        """
        template = None
        if self.workload.warm:
            template = SCRATCH_DIR / f"warm-{sources_digest()}"
            if not template.is_dir():
                filled = self.store()
                self.launch(self.workload_argv(), filled, "fill", True)
                if not self.tally.correct:
                    raise BenchError("the launch that fills the warm store failed")
                try:
                    filled.rename(template)
                except OSError:
                    if not template.is_dir():
                        raise
        self.launch(self.probe_argv(), self.store(), "warm-up", False)
        return template

    def probe_setup(self, cpu: int) -> List[float]:
        """Set-up times of :data:`SETUP_PROBES` probe launches on ``cpu``."""
        probes = [self.launch(self.probe_argv(), self.store(), "probe", False, [cpu])
                  for _ in range(SETUP_PROBES)]
        setup = [probe.setup_s for probe in probes if probe.setup_s is not None]
        if not setup:
            raise BenchError("no probe reported its set-up time")
        return setup

    def cpus(self) -> List[int]:
        """The CPUs the measured launches run on, the lowest available first."""
        return sorted(os.sched_getaffinity(0))[:self.workload.cpus]

    # -- the two kinds of run -----------------------------------------

    def measure(self, seconds: float) -> Dict[str, float]:
        """End-to-end metrics: medians over the launches of ``seconds``.

        Times are in seconds at the reference speed: each launch's wall
        and CPU time is scaled by the speed the probe measured on its
        CPUs while it ran (see :mod:`e2ebench.speed`); the set-up time
        likewise, over the set-up probes.
        """
        template = self.prepare()
        cpus = self.cpus()
        journals: List[Journal] = []
        with SpeedProbe(cpus) as probe:
            begun = time.monotonic()
            setup = self.probe_setup(cpus[0])
            setup_scale = probe.scale(begun, time.monotonic(), cpus[:1])

            def once() -> Tuple[Launch, float]:
                store = self.store(template)
                begun = time.monotonic()
                launch = self.launch(self.workload_argv(), store, "launch", True, cpus)
                scale = probe.scale(begun, time.monotonic())
                path = journal_path(launch.stderr)
                if path is not None and path.is_file():
                    journals.append(read_journal(path))
                shutil.rmtree(store)
                return launch, scale

            runs = repeat(seconds, once)
        self._report_experiments(journals, runs[-1][0].stdout)
        raw_wall = statistics.median(launch.wall_s for launch, _ in runs)
        speed = statistics.median(scale for _, scale in runs)
        print(f"[e2ebench] {self.workload.name}: {len(runs)} launches on CPUs {cpus}, "
              f"median wall {raw_wall:.3f}s, set-up {statistics.median(setup):.3f}s as measured; "
              f"host at {speed:.3f}x (launches) and {setup_scale:.3f}x (set-up) the reference "
              f"speed of {REFERENCE_S * 1e3:.1f} ms per probe sample", file=sys.stderr)
        return {
            "reproduce_s": statistics.median(launch.wall_s * scale for launch, scale in runs),
            "setup_s": statistics.median(setup) * setup_scale,
            "cpu_s": statistics.median(launch.cpu_s * scale for launch, scale in runs),
            "peak_rss_mb": statistics.median(launch.peak_rss_mb for launch, _ in runs),
        }

    def trace(self, seconds: float) -> Dict[str, float]:
        """Per-layer metrics of the median traced launch of ``seconds``."""
        template = self.prepare()
        runs = repeat(seconds, lambda: self._traced(template))
        # Report one whole traced launch, the median one, so its time
        # metrics still add up to its wall time.
        values, spans = sorted(runs, key=lambda run: run[0]["trace.wall_s"])[(len(runs) - 1) // 2]
        print(f"[e2ebench] {self.workload.name} layer breakdown (median of {len(runs)} "
              "traced launches):", file=sys.stderr)
        for name, calls, own in breakdown(spans):
            print(f"  {name:<16} {calls:>7} calls {own:>10.3f}s self", file=sys.stderr)
        return values

    def _traced(self, template: Optional[Path]
                ) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
        """One traced launch: its layer metrics and spans."""
        store = self.store(template)
        spans_path = self.scratch / f"spans-{self._stores}.jsonl"
        launch = self.launch(self.traced_argv(spans_path), store, "traced", True)
        print(f"[e2ebench] {self.workload.name} traced launch: {launch.wall_s:.3f}s wall",
              file=sys.stderr)
        if not spans_path.is_file():
            raise BenchError("the traced launch wrote no spans")
        spans, counters = read_spans(spans_path)
        shutil.rmtree(store)
        return layer_metrics(spans, counters), spans

    def _report_experiments(self, journals: List[Journal], stdout: str) -> None:
        """Per-experiment medians from the launches' journals, on stderr."""
        elapsed: Dict[str, List[float]] = {}
        bypass = set()
        for journal in journals:
            for experiment, end in journal.ended.items():
                if end.get("elapsed") is not None:
                    elapsed.setdefault(experiment, []).append(float(end["elapsed"]))
                if experiment not in journal.batched:
                    bypass.add(experiment)
        parts = [
            f"{experiment} {statistics.median(times):.3f}s"
            + (" (bypasses the store)" if experiment in bypass else "")
            for experiment, times in elapsed.items()
        ]
        print(f"[e2ebench] {self.workload.name} experiments, median of {len(journals)} "
              f"journals (as measured): {', '.join(parts)}", file=sys.stderr)
        summary = parse_summaries(stdout).get("fig5", {})
        if "gmean_improvement" in summary:
            print(f"[e2ebench] fig5 NUcache-vs-LRU gmean weighted-speedup gain: "
                  f"{summary['gmean_improvement']:+.4g}", file=sys.stderr)
