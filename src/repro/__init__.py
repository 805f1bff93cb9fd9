"""NUcache reproduction (HPCA 2011).

A trace-driven multicore cache study: the NUcache shared-LLC
organization (MainWays/DeliWays with Next-Use-distance cost-benefit PC
selection), the baselines it is evaluated against (LRU, DIP, TADIP-F,
UCP, PIPP, RRIP family), a synthetic SPEC-like workload substrate, and
experiment drivers that regenerate every table and figure of the
evaluation (see DESIGN.md and EXPERIMENTS.md).

Quickstart::

    from repro import run_mix, weighted_speedup

    base = run_mix("mix4_1", "lru")
    nuca = run_mix("mix4_1", "nucache")
"""

from repro.common import (
    CacheGeometry,
    LatencyConfig,
    NUcacheConfig,
    ReproError,
    SystemConfig,
    paper_system_config,
    tiny_system_config,
)
from repro.exec import BatchReport, FileResultStore, Scheduler, SimJob, run_jobs
from repro.metrics import (
    average_normalized_turnaround,
    fairness,
    geometric_mean,
    harmonic_mean_speedup,
    improvement,
    weighted_speedup,
)
from repro.nucache import NUCache
from repro.sim import (
    MulticoreEngine,
    SimResult,
    alone_ipc,
    make_llc,
    policy_names,
    run_mix,
    run_single,
    run_workload,
)
from repro.workloads import (
    BenchmarkSpec,
    Trace,
    benchmark,
    benchmark_names,
    generate_trace,
    mix_members,
    mix_names,
)

__version__ = "1.0.0"

__all__ = [
    "BatchReport",
    "BenchmarkSpec",
    "CacheGeometry",
    "FileResultStore",
    "LatencyConfig",
    "MulticoreEngine",
    "NUCache",
    "NUcacheConfig",
    "ReproError",
    "Scheduler",
    "SimJob",
    "SimResult",
    "SystemConfig",
    "Trace",
    "__version__",
    "alone_ipc",
    "average_normalized_turnaround",
    "benchmark",
    "benchmark_names",
    "fairness",
    "generate_trace",
    "geometric_mean",
    "harmonic_mean_speedup",
    "improvement",
    "make_llc",
    "mix_members",
    "mix_names",
    "paper_system_config",
    "policy_names",
    "run_jobs",
    "run_mix",
    "run_single",
    "run_workload",
    "tiny_system_config",
    "weighted_speedup",
]
