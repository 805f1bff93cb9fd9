"""Host-speed probe: a fixed reference loop timed beside each launch.

On a shared host the speed of a virtual CPU changes from second to
second, by up to 1.7x, as other tenants load the physical core under
it.  The slowdown is per instruction, not time spent descheduled, so
wall and CPU time of the same work move together and neither is steady
across runs.  A probe on an idle CPU does not see what the busy one
suffers; a probe sharing the launch's CPU does.

:class:`SpeedProbe` runs one thread per CPU the launch runs on, pinned
to that CPU.  Every :data:`INTERVAL_S` it times :func:`reference_sample`
in thread CPU time.  The reference is pure Python shaped like the
simulator's hot path (method calls on small cache objects, dict sets,
LRU eviction), so its slowdown under contention is close to the
program's; a tight arithmetic loop slows more than the program does.
:meth:`SpeedProbe.scale` turns the mean sample over an interval into
the factor that converts a time measured in that interval into seconds
at the reference speed: the speed at which one sample takes
:data:`REFERENCE_S`.  The reference is part of the benchmark, so no
change to the program moves it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Collection, Iterable, List, Optional, Tuple

#: CPU seconds one reference sample takes at the reference speed: about
#: what it takes on a quiet host of the 2-vCPU x86-64 VM the README's
#: numbers are from, so that scaled times come out close to the wall
#: times measured there when the host was quiet.
REFERENCE_S = 0.0031
#: Seconds a probe thread waits after each sample.
INTERVAL_S = 0.2
#: Accesses per reference sample.
SAMPLE_ACCESSES = 2_000


class _Level:
    """One set-associative LRU cache level of the reference hierarchy."""

    __slots__ = ("sets", "mask", "ways", "clock", "hits")

    def __init__(self, num_sets: int, ways: int) -> None:
        self.sets = [dict() for _ in range(num_sets)]
        self.mask = num_sets - 1
        self.ways = ways
        self.clock = 0
        self.hits = 0

    def access(self, block: int) -> bool:
        self.clock += 1
        lines = self.sets[block & self.mask]
        if block in lines:
            lines[block] = self.clock
            self.hits += 1
            return True
        if len(lines) >= self.ways:
            del lines[min(lines, key=lines.__getitem__)]
        lines[block] = self.clock
        return False


_BLOCKS = tuple(range(1 << 16))


def reference_sample() -> int:
    """The reference work: a fixed access stream through a two-level cache.

    Three in four of :data:`SAMPLE_ACCESSES` accesses go to a
    pseudo-random block of a 64K-block footprint, the rest stream
    sequentially.  Returns the hit count, a fixed number, so the work
    cannot be skipped.
    """
    l1, l2 = _Level(64, 4), _Level(1024, 8)
    state, sequential = 987654321, 0
    for _ in range(SAMPLE_ACCESSES):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        if state & 3:
            block = _BLOCKS[(state >> 20) & 0xFFFF]
        else:
            sequential += 1
            block = sequential
        if not l1.access(block):
            l2.access(block)
    return l1.hits + l2.hits


class SpeedProbe:
    """Reference samples on a set of CPUs, one pinned thread each."""

    def __init__(self, cpus: Iterable[int], interval: float = INTERVAL_S) -> None:
        self.cpus = tuple(sorted(cpus))
        self.interval = interval
        #: ``(monotonic end time, cpu, CPU seconds)`` per sample.
        self.samples: List[Tuple[float, int, float]] = []
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while not self._stop.wait(self.interval):
            begun = time.thread_time()
            reference_sample()
            used = time.thread_time() - begun
            self.samples.append((time.monotonic(), cpu, used))

    def start(self) -> None:
        """Start sampling."""
        for cpu in self.cpus:
            thread = threading.Thread(target=self._run, args=(cpu,), daemon=True,
                                      name=f"speed-probe-{cpu}")
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop sampling and wait for every probe thread."""
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    def scale(self, start: float, end: float, cpus: Optional[Collection[int]] = None) -> float:
        """Factor from seconds measured in ``[start, end]`` to reference seconds.

        It is :data:`REFERENCE_S` over the mean of the samples on
        ``cpus`` (default: every probed CPU) that ended in the interval;
        a launch spread over several CPUs runs at their average speed.
        Raises :class:`ValueError` when no such sample exists.
        """
        inside = [used for at, cpu, used in self.samples
                  if start <= at <= end and (cpus is None or cpu in cpus)]
        if not inside:
            raise ValueError(f"no speed sample in an interval of {end - start:.2f}s")
        return REFERENCE_S / statistics.fmean(inside)
