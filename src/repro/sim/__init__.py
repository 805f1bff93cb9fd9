"""Trace-driven multicore simulator."""

from repro.sim.core import CoreModel
from repro.sim.engine import CoreResult, MulticoreEngine, SimResult
from repro.sim.memory import BandwidthLimitedMemory, FixedLatencyMemory
from repro.sim.policies import make_llc, policy_names
from repro.sim.runner import (
    DEFAULT_ACCESSES,
    alone_ipc,
    clear_alone_memo,
    make_traces,
    run_mix,
    run_single,
    run_workload,
)

__all__ = [
    "BandwidthLimitedMemory",
    "CoreModel",
    "CoreResult",
    "DEFAULT_ACCESSES",
    "FixedLatencyMemory",
    "MulticoreEngine",
    "SimResult",
    "alone_ipc",
    "clear_alone_memo",
    "make_llc",
    "make_traces",
    "policy_names",
    "run_mix",
    "run_single",
    "run_workload",
]
