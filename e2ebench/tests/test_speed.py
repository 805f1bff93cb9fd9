"""The host-speed probe and CPU pinning of launches."""

from __future__ import annotations

import os
import sys
import time

import pytest

from e2ebench.launch import run_process
from e2ebench.speed import REFERENCE_S, SpeedProbe, reference_sample

CPU = min(os.sched_getaffinity(0))


def test_reference_sample_does_fixed_work():
    assert reference_sample() == reference_sample() > 0


def test_probe_samples_its_cpu_until_stopped():
    begun = time.monotonic()
    with SpeedProbe([CPU], interval=0.01) as probe:
        time.sleep(0.3)
    ended = time.monotonic()
    count = len(probe.samples)
    assert count >= 3
    assert {cpu for _at, cpu, _used in probe.samples} == {CPU}
    assert all(used > 0 for _at, _cpu, used in probe.samples)
    time.sleep(0.05)
    assert len(probe.samples) == count, "a probe thread outlived stop()"
    mean = sum(used for _at, _cpu, used in probe.samples) / count
    assert probe.scale(begun, ended) == pytest.approx(REFERENCE_S / mean)
    assert probe.scale(begun, ended, [CPU]) == probe.scale(begun, ended)
    with pytest.raises(ValueError, match="no speed sample"):
        probe.scale(begun, ended, [CPU + 1])
    with pytest.raises(ValueError, match="no speed sample"):
        probe.scale(ended + 1, ended + 2)


def test_a_pinned_launch_and_its_children_run_on_the_given_cpus(tmp_path):
    # The child is pinned just after it starts; the sleep lets that land.
    code = ("import os, subprocess, sys, time; time.sleep(0.2); "
            "print(sorted(os.sched_getaffinity(0))); "
            "sys.stdout.flush(); subprocess.run([sys.executable, '-c', "
            "'import os; print(sorted(os.sched_getaffinity(0)))'])")
    launch = run_process([sys.executable, "-c", code], {}, tmp_path, timeout=60, cpus=[CPU])
    assert launch.exit_code == 0
    assert launch.stdout == f"[{CPU}]\n[{CPU}]\n"
