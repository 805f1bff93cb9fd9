"""Golden equivalence tests for the fast-path access kernel.

The hot-path restructuring (slot-array :class:`CacheSet`, inlined LRU
stack operations, the engine's uninstrumented loop) is only legal if it
is *semantics-preserving*: every simulated number must be bit-identical
to the pre-optimization engine.  These tests pin that equivalence
against artifacts captured from the unoptimized kernel:

* ``tests/golden/simresults.json`` — ``SimResult.to_dict()`` payloads
  for 13 runs spanning every hot path (plain policies, NUcache, RRIP/
  SHiP/DIP families, UCP and the partitioned hybrid, prefetching, the
  bandwidth memory model), plus 19 NUcache runs that pin its ablations
  (DeliWay replacement, profiler sampling and history capacity, epoch
  length, the way split, every selector) and a 4-core partitioned mix,
  captured before the NUcache set moved onto slot lists, and 6
  single-core prefetcher runs (LRU and NUcache under each prefetcher),
  captured before the lone core's loop was fused into one frame.
* ``tests/golden/fig3_fig5_scale05.txt`` — full CLI stdout of
  ``REPRO_SCALE=0.05 run fig3 fig5``.
* Three pinned :meth:`SimJob.key` hashes — a semantics-preserving
  refactor must not bump :data:`~repro.exec.job.ENGINE_VERSION` or
  otherwise move results in the content-addressed store.

The same payload assertions run twice: once on the scalar engine and
once with ``REPRO_ENGINE=vector``, pinning the vector backend to the
identical golden bytes (see ``tests/test_vector_engine.py`` for the
kernel- and engine-level fuzzing behind that guarantee).

If a change legitimately alters simulated numbers, recapture the golden
files (see ``docs/benchmarking.md``) *and* bump ``ENGINE_VERSION`` —
these tests failing together with a forgotten version bump is exactly
the bug they exist to catch.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.exec.job import ENGINE_VERSION, SimJob
from repro.sim.runner import run_mix, run_single, run_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Golden runs: key -> thunk producing the SimResult.
_SINGLE_POLICIES = ["lru", "nucache", "srrip", "ship", "dip", "sdbp"]
_MIX_POLICIES = ["lru", "nucache", "tadip", "drrip", "ucp", "nucache-ucp"]


#: NUcache ablation goldens: name -> NUcacheConfig overrides.  art_like
#: selects nothing at this length under the defaults, so omnetpp_like
#: (and gcc_like for the oracle) pin runs where the ablation moves the
#: payload.
_NUCACHE_ABLATIONS = {
    "deli_replacement=lru": {"deli_replacement": "lru"},
    "sample_period=8": {"sample_period": 8},
    "history_capacity=512": {"history_capacity": 512},
    "epoch_misses=2500": {"epoch_misses": 2500},
    "deli_ways=0": {"deli_ways": 0},
    "deli_ways=14": {"deli_ways": 14},
    "selector=topk": {"selector": "topk"},
    "selector=all": {"selector": "all"},
    # fig9's reduced pool, which keeps the exhaustive search tractable.
    "selector=oracle": {
        "selector": "oracle", "num_candidate_pcs": 10, "max_selected_pcs": 5,
    },
}
_NUCACHE_ABLATION_RUNS = [
    (workload, name)
    for workload in ("art_like", "omnetpp_like")
    for name in _NUCACHE_ABLATIONS
] + [("gcc_like", "selector=oracle")]


def _golden_payloads() -> dict:
    with open(GOLDEN_DIR / "simresults.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestSimResultGolden:
    """Every simulated payload matches the pre-optimization engine."""

    @pytest.mark.parametrize("policy", _SINGLE_POLICIES)
    def test_single_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"single:art_like:{policy}"]
        result = run_single("art_like", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    @pytest.mark.parametrize("policy", _MIX_POLICIES)
    def test_mix_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"mix:mix2_1:{policy}"]
        result = run_mix("mix2_1", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    def test_prefetch_bandwidth_run_byte_identical(self):
        golden = _golden_payloads()["workload:stride-bandwidth:nucache"]
        result = run_workload(
            ["art_like", "mcf_like"], "nucache", None, 12_000, 7, 0.25,
            "stride", "bandwidth",
        )
        assert result.to_dict() == golden


class TestSimResultGoldenVectorBackend:
    """The vector backend reproduces the same golden payloads.

    Same runs as :class:`TestSimResultGolden`, but with
    ``REPRO_ENGINE=vector`` so :func:`repro.sim.vector.make_engine`
    selects :class:`~repro.sim.vector.VectorEngine`.  Plain-LRU runs
    exercise the fully vectorized path; NUcache/RRIP/partitioned runs
    exercise the hybrid path; either way the payload must stay
    byte-identical to the scalar capture.
    """

    @pytest.fixture(autouse=True)
    def _vector_backend(self, monkeypatch):
        from repro.sim.vector import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "vector")

    @pytest.mark.parametrize("policy", _SINGLE_POLICIES)
    def test_single_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"single:art_like:{policy}"]
        result = run_single("art_like", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    @pytest.mark.parametrize("policy", _MIX_POLICIES)
    def test_mix_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"mix:mix2_1:{policy}"]
        result = run_mix("mix2_1", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    def test_prefetch_bandwidth_run_byte_identical(self):
        golden = _golden_payloads()["workload:stride-bandwidth:nucache"]
        result = run_workload(
            ["art_like", "mcf_like"], "nucache", None, 12_000, 7, 0.25,
            "stride", "bandwidth",
        )
        assert result.to_dict() == golden


class _CountingHistory(OrderedDict):
    """A Next-Use history that counts its capacity pops."""

    pops = 0

    def popitem(self, last: bool = True):
        _CountingHistory.pops += 1
        return super().popitem(last=last)


@pytest.fixture(params=["default", "scalar", "vector"])
def engine_env(request, monkeypatch):
    """Run under the default engine choice, or force one backend."""
    from repro.sim.vector import ENGINE_ENV

    if request.param == "default":
        monkeypatch.delenv(ENGINE_ENV, raising=False)
    else:
        monkeypatch.setenv(ENGINE_ENV, request.param)
    return request.param


class TestNUcacheAblationGolden:
    """NUcache's ablations and a 4-core partitioned mix, on every engine."""

    @pytest.mark.parametrize(
        "workload,ablation", _NUCACHE_ABLATION_RUNS,
        ids=[f"{workload}:{name}" for workload, name in _NUCACHE_ABLATION_RUNS],
    )
    def test_single_ablation_byte_identical(self, engine_env, workload, ablation):
        golden = _golden_payloads()[f"single:{workload}:nucache:{ablation}"]
        result = run_single(
            workload, "nucache", 12_000, 20110212,
            **_NUCACHE_ABLATIONS[ablation],
        )
        assert result.to_dict() == golden

    def test_small_history_pops_and_stays_byte_identical(
        self, engine_env, monkeypatch
    ):
        from repro.nucache import nextuse

        monkeypatch.setattr(nextuse, "OrderedDict", _CountingHistory)
        monkeypatch.setattr(_CountingHistory, "pops", 0)
        result = run_single(
            "art_like", "nucache", 12_000, 20110212, history_capacity=512
        )
        assert _CountingHistory.pops > 0
        golden = _golden_payloads()["single:art_like:nucache:history_capacity=512"]
        assert result.to_dict() == golden

    def test_four_core_partitioned_mix_byte_identical(self, engine_env):
        golden = _golden_payloads()["mix:mix4_1:nucache-ucp"]
        result = run_mix("mix4_1", "nucache-ucp", 12_000, 20110212)
        assert result.to_dict() == golden


_PREFETCH_RUNS = [
    (policy, prefetcher)
    for policy in ("lru", "nucache")
    for prefetcher in ("nextline", "stride", "stream")
]


class TestPrefetcherGolden:
    """Single-core prefetcher runs, which take the scalar loop on every
    engine (and so the lone core's fused frame)."""

    @pytest.mark.parametrize(
        "policy,prefetcher", _PREFETCH_RUNS,
        ids=[f"{policy}:{prefetcher}" for policy, prefetcher in _PREFETCH_RUNS],
    )
    def test_single_prefetcher_byte_identical(self, engine_env, policy, prefetcher):
        golden = _golden_payloads()[f"single:art_like:{policy}:prefetcher={prefetcher}"]
        result = run_single(
            "art_like", policy, 12_000, 20110212, prefetcher=prefetcher
        )
        assert result.to_dict() == golden


class TestStoreKeyStability:
    """Content-addressed store keys survive the refactor unchanged."""

    def test_engine_version_not_bumped(self):
        assert ENGINE_VERSION == 1

    def test_pinned_job_keys(self):
        assert SimJob.mix("mix2_1", "nucache", 50_000).key() == (
            "a8845177ceab456cbb1561e5b83e955a0cc35551abd1cff18380deb1ecec0c58"
        )
        assert SimJob.alone("art_like", 4, 50_000).key() == (
            "10ef1f7af280eb66b85b195e5588be84869b0c945e90a57652ec4da232d92452"
        )
        assert SimJob.single("art_like", "nucache", 20_000, deli_ways=4).key() == (
            "5ca17eb969a2f43e72347575488368bdad881c0e03fbb940a5e85c1182cf4e70"
        )


@pytest.mark.slow
class TestFigureStdoutGolden:
    """fig3 + fig5 CLI stdout is byte-identical to the captured run."""

    def test_fig3_fig5_stdout(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main
        from repro.exec import context as exec_context

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        exec_context.reset()
        try:
            assert main(["run", "fig3", "fig5"]) == 0
        finally:
            exec_context.reset()
        out = capsys.readouterr().out
        golden = (GOLDEN_DIR / "fig3_fig5_scale05.txt").read_text(encoding="utf-8")
        assert out == golden


def test_golden_artifacts_exist():
    """The captured artifacts ship with the repo (guards against loss)."""
    assert (GOLDEN_DIR / "simresults.json").is_file()
    assert (GOLDEN_DIR / "fig3_fig5_scale05.txt").is_file()
    assert os.path.getsize(GOLDEN_DIR / "simresults.json") > 1_000
