"""Tests for the runtime invariant sanitizer (repro.check.invariants)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.check import fuzz, invariants
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.basic import lru_factory
from repro.check.invariants import (
    CHECK_ENV_VAR,
    CHECK_INTERVAL_ACCESSES,
    MODE_ACCESS,
    MODE_EPOCH,
    MODES,
    EngineChecker,
    assert_llc,
    check_llc,
    current_mode,
    engine_checker,
    snapshot_llc,
)
from repro.common.config import paper_system_config
from repro.common.errors import InvariantViolation, ReproError
from repro.nucache.organization import _DeliEntry
from repro.prefetch.prefetchers import make_prefetcher
from repro.sim import vector
from repro.sim.engine import MulticoreEngine
from repro.sim.policies import make_llc
from repro.sim.runner import make_traces
from repro.sim.vector import VectorEngine

from conftest import make_trace


def _populated(policy: str = "nucache", accesses: int = 2000, **overrides):
    """An LLC of the given organization after a seeded fuzz stream."""
    case = fuzz.FuzzCase(policy=policy, accesses=accesses, **overrides)
    llc = make_llc(policy, fuzz.system_config(case), seed=case.seed)
    for block_addr, core, pc, is_write in fuzz.generate_stream(case):
        llc.access(block_addr, core, pc, is_write)
    return llc


def _set_with_deli(llc, minimum: int = 2):
    """First set holding at least ``minimum`` DeliWay lines."""
    for nu_set in llc.sets:
        if len(nu_set.deli) >= minimum:
            return nu_set
    raise AssertionError("stream left no set with enough DeliWay lines")


class TestMode:
    def test_defaults_to_off(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
        assert current_mode() == "off"
        assert engine_checker(object()) is None

    @pytest.mark.parametrize("mode", MODES)
    def test_recognized_values(self, monkeypatch, mode):
        monkeypatch.setenv(CHECK_ENV_VAR, mode)
        assert current_mode() == mode

    def test_case_and_whitespace_tolerated(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV_VAR, " Epoch ")
        assert current_mode() == MODE_EPOCH

    def test_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV_VAR, "sometimes")
        with pytest.raises(ReproError, match="REPRO_CHECK"):
            current_mode()


class TestPackageImports:
    def test_oracle_and_fuzzer_load_on_first_use(self):
        """An engine run imports the checker only, not the oracle or fuzzer."""
        code = (
            "import sys\n"
            "import repro.check\n"
            "from repro.check.invariants import engine_checker\n"
            "lazy = ('repro.check.oracle', 'repro.check.fuzz')\n"
            "assert not any(name in sys.modules for name in lazy), sys.modules\n"
            "assert repro.check.run_check.__module__ == 'repro.check.fuzz'\n"
            "assert repro.check.make_reference.__module__ == 'repro.check.oracle'\n"
            "assert all(name in sys.modules for name in lazy)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_unknown_name_raises_attribute_error(self):
        import repro.check

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.check.no_such_name  # noqa: B018


class TestCleanStructures:
    @pytest.mark.parametrize(
        "policy", ["lru", "srrip", "sdbp", "nucache", "nucache-ucp", "ucp", "pipp"]
    )
    def test_healthy_llc_has_no_violations(self, policy):
        llc = _populated(policy, accesses=1000)
        assert check_llc(llc) == []
        assert_llc(llc)  # must not raise

    def test_fresh_llc_is_clean(self):
        case = fuzz.FuzzCase(policy="nucache")
        llc = make_llc("nucache", fuzz.system_config(case))
        assert check_llc(llc) == []


class TestCorruptionDetection:
    def test_tag_in_both_main_and_deli(self):
        llc = _populated()
        nu_set = next(s for s in llc.sets if s.tag_to_way)
        tag, way = next(iter(nu_set.tag_to_way.items()))
        nu_set.deli[tag] = _DeliEntry(
            nu_set.cores[way], nu_set.pcs[way], nu_set.slots[way],
            nu_set.dirty[way], seq=llc.retentions,
        )
        assert any("both MainWays and DeliWays" in v for v in check_llc(llc))

    def test_broken_main_stack_permutation(self):
        llc = _populated()
        stack = llc.sets[0].stack
        stack[0] = stack[1]
        assert any("not a permutation" in v for v in check_llc(llc))

    def test_free_list_corruption(self):
        llc = _populated("lru")
        cache_set = next(s for s in llc.sets if s._tag_to_way)
        cache_set._free_ways.append(next(iter(cache_set._tag_to_way.values())))
        assert any("free ways" in v.lower() for v in check_llc(llc))

    def test_negative_nextuse_counter(self):
        llc = _populated()
        llc.controller.profiler._evictions[0] = -1
        assert any("negative eviction counter" in v for v in check_llc(llc))

    def test_nextuse_history_past_log_end(self):
        llc = _populated()
        profiler = llc.controller.profiler
        block_addr = next(iter(profiler._history))
        profiler._history[block_addr] = len(profiler._log)
        assert any("past the end of the log" in v for v in check_llc(llc))

    def test_stats_tamper(self):
        llc = _populated("lru")
        llc.stats.total.hits += 1
        assert any("per-core hits" in v for v in check_llc(llc))

    def test_deli_overflow(self):
        llc = _populated()
        nu_set = _set_with_deli(llc, minimum=1)
        for extra in range(llc.deli_ways + 1):
            nu_set.deli[0x900000 + extra] = _DeliEntry(
                0, 0x400000, -1, False, seq=llc.retentions + extra
            )
        assert any("capacity" in v for v in check_llc(llc))

    def test_fifo_seq_swap(self):
        llc = _populated()
        entries = list(_set_with_deli(llc).deli.values())
        entries[0].seq, entries[1].seq = entries[1].seq, entries[0].seq
        assert any("FIFO order broken" in v for v in check_llc(llc))

    def test_retention_conservation(self):
        llc = _populated()
        llc.retentions += 1
        assert any("retention conservation" in v for v in check_llc(llc))

    def test_quota_corruption_on_partitioned(self):
        llc = _populated("nucache-ucp")
        llc.allocation[0] += 1
        assert any("quotas" in v for v in check_llc(llc))


class TestViolationPayload:
    def _violation(self):
        llc = _populated()
        entries = list(_set_with_deli(llc).deli.values())
        entries[0].seq, entries[1].seq = entries[1].seq, entries[0].seq
        with pytest.raises(InvariantViolation) as info:
            assert_llc(llc, context="unit test")
        return info.value

    def test_assert_llc_raises_with_snapshot(self):
        violation = self._violation()
        assert violation.violations
        assert violation.context == "unit test"
        snapshot = violation.snapshot
        assert snapshot["policy"]
        assert snapshot["sets"]  # the offending set is serialized
        payload = violation.to_dict()
        assert payload["violations"] == list(violation.violations)

    def test_violation_survives_pickling(self):
        violation = self._violation()
        clone = pickle.loads(pickle.dumps(violation))
        assert clone.violations == violation.violations
        assert clone.snapshot == violation.snapshot
        assert str(clone) == str(violation)

    def test_snapshot_is_bounded(self):
        llc = _populated()
        snapshot = snapshot_llc(llc)
        assert len(snapshot["sets"]) <= 8


class TestEngineIntegration:
    def _engine(self, policy="nucache", cores=1, cls=MulticoreEngine, prefetcher=None):
        case = fuzz.FuzzCase(policy=policy, cores=cores)
        config = fuzz.system_config(case)
        llc = make_llc(policy, config, seed=case.seed)
        blocks = [(7 * i) % 96 for i in range(1500)]
        pcs = [0x400000 + (i % 9) * 4 for i in range(1500)]
        trace = make_trace(blocks, pcs=pcs, gap=0)
        # Relocated copies of one trace keep the cores' clocks tied
        # often, so the schedule's (clock, core_id) tie-break decides
        # which core reaches the LLC first.
        traces = [trace.relocated(core_id) for core_id in range(cores)]
        prefetchers = None
        if prefetcher is not None:
            prefetchers = [make_prefetcher(prefetcher) for _ in range(cores)]
        return cls(traces, llc, config, prefetchers=prefetchers), llc

    @pytest.mark.parametrize("cores", [1, 4], ids=["1-core", "4-core"])
    def test_checked_run_matches_unchecked(self, monkeypatch, cores):
        """Access-checked runs call the checker's counting wrapper once
        per LLC access, epoch-checked NUcache runs the LLC's own
        ``access``: both must schedule the cores identically."""
        monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
        engine, _ = self._engine(cores=cores)
        baseline = engine.run().to_dict()
        for mode in (MODE_EPOCH, MODE_ACCESS):
            monkeypatch.setenv(CHECK_ENV_VAR, mode)
            engine, _ = self._engine(cores=cores)
            assert engine.run().to_dict() == baseline

    @pytest.mark.parametrize("mode", [MODE_EPOCH, MODE_ACCESS])
    def test_corrupted_llc_fails_checked_run(self, monkeypatch, mode):
        monkeypatch.setenv(CHECK_ENV_VAR, mode)
        engine, llc = self._engine()
        llc.stats.total.hits += 1  # conservation break the checker must see
        with pytest.raises(InvariantViolation):
            engine.run()

    @pytest.mark.parametrize("cls", [MulticoreEngine, VectorEngine])
    def test_epoch_mode_checks_every_boundary_and_the_end(self, monkeypatch, cls):
        checkers = _record_checkers(monkeypatch, MODE_EPOCH)
        engine, llc = self._engine(cores=4, cls=cls)
        engine.run()
        (checker,) = checkers
        assert llc.controller.epochs_completed > 1
        assert checker.checks_run == llc.controller.epochs_completed + 1
        if cls is VectorEngine:
            assert engine.fallback_reason == "hybrid:llc_policy:nucache"

    def test_epoch_mode_checks_epochless_llc_at_interval(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV_VAR, MODE_EPOCH)
        engine, llc = self._engine("lru")
        llc.stats.total.hits += 1
        with pytest.raises(InvariantViolation):
            engine.run()  # the terminal finish() check fires at the latest

    @pytest.mark.parametrize(
        "mode,interval", [(MODE_ACCESS, 1), (MODE_EPOCH, CHECK_INTERVAL_ACCESSES)]
    )
    def test_counting_wrapper_checks_at_its_interval(self, mode, interval):
        llc = make_llc("lru", fuzz.system_config(fuzz.FuzzCase(policy="lru")))
        checker = EngineChecker(llc, mode)
        assert checker.counts_accesses  # an LRU LLC has no epoch controller
        access = checker.counting(llc.access)
        calls = 4 * interval - 1  # one short of the fourth check
        for block in range(calls):
            assert access(block, 0, 0, False) is False  # the LLC's answer: a miss
        assert checker.checks_run == 3
        assert llc.stats.total.misses == calls

    @pytest.mark.parametrize("cls", [MulticoreEngine, VectorEngine])
    @pytest.mark.parametrize(
        "policy,cores,prefetcher,path",
        [
            ("lru", 4, None, "hybrid:checker"),
            ("nucache", 4, None, "hybrid:llc_policy:nucache"),
            ("ucp", 4, None, "hybrid:llc_policy:ucp"),
            ("nucache", 1, "nextline", "scalar:prefetchers"),
            ("lru", 2, "stride", "scalar:prefetchers"),
        ],
    )
    def test_access_mode_checks_every_llc_access_and_the_end(
        self, monkeypatch, cls, policy, cores, prefetcher, path
    ):
        checkers = _record_checkers(monkeypatch, MODE_ACCESS)
        frames = []
        monkeypatch.setattr(vector, "_replay_nucache", lambda *args: frames.append(1))
        engine, llc = self._engine(policy, cores=cores, cls=cls, prefetcher=prefetcher)
        engine.run()
        (checker,) = checkers
        accesses = llc.stats.total.hits + llc.stats.total.misses
        assert checker.checks_run == accesses + 1
        # Demand accesses reach the LLC; a prefetcher's fills add more.
        demand = sum(core.llc_accesses() for core in engine.cores)
        assert accesses > demand if prefetcher else accesses == demand
        assert frames == []  # NUcache's frame would call no ``access``
        if cls is VectorEngine:
            assert engine.fallback_reason == path

    @pytest.mark.parametrize("cls", [MulticoreEngine, VectorEngine])
    def test_epoch_mode_catches_corruption_mid_run(self, monkeypatch, cls):
        monkeypatch.setenv(CHECK_ENV_VAR, MODE_EPOCH)
        config = paper_system_config(2)
        llc = _CorruptingLRU(config.llc, at=CHECK_INTERVAL_ACCESSES + 100)
        traces = make_traces(["mcf_like", "milc_like"], 3_000, 11)
        engine = cls(traces, llc, config)
        with pytest.raises(InvariantViolation) as caught:
            engine.run()
        # The first check after the corruption names its LLC access.
        assert caught.value.context == f"LLC access {2 * CHECK_INTERVAL_ACCESSES}"
        assert llc.calls == 2 * CHECK_INTERVAL_ACCESSES
        if cls is VectorEngine:
            assert engine.fallback_reason == "hybrid:llc_policy:corrupting-lru"


def _record_checkers(monkeypatch, mode):
    """Set ``REPRO_CHECK`` to ``mode``; returns the checkers runs make."""
    monkeypatch.setenv(CHECK_ENV_VAR, mode)
    checkers = []

    def recording_engine_checker(llc):
        checkers.append(engine_checker(llc))
        return checkers[-1]

    monkeypatch.setattr(invariants, "engine_checker", recording_engine_checker)
    return checkers


class _CorruptingLRU(SetAssociativeCache):
    """A plain-LRU LLC that corrupts set 0's free list at access ``at``."""

    def __init__(self, geometry, at):
        super().__init__(geometry, lru_factory(), "corrupting-lru")
        self.at = at
        self.calls = 0

    def access(self, block_addr, core, pc, is_write):
        self.calls += 1
        if self.calls == self.at:
            self.sets[0]._free_ways.append(0)
        return super().access(block_addr, core, pc, is_write)
