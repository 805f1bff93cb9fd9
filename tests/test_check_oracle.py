"""Tests for the differential reference-model oracle (repro.check.oracle)."""

from __future__ import annotations

import pytest

from repro.check import fuzz
from repro.check.oracle import DifferentialHarness, make_reference
from repro.common.errors import InvariantViolation, ReproError
from repro.sim.policies import make_llc

#: The satellite-required policy families: every shipped family with a
#: reference model, one representative per optimization-relevant path.
FAMILIES = ("lru", "dip", "srrip", "ship", "sdbp", "nucache", "nucache-ucp")


def _replay(case, **kwargs):
    return fuzz.replay_stream(case, fuzz.generate_stream(case), **kwargs)


class TestLockstep:
    @pytest.mark.parametrize("policy", FAMILIES)
    def test_kernel_matches_reference(self, policy):
        case = fuzz.FuzzCase(policy=policy, accesses=1500)
        assert _replay(case) is None

    @pytest.mark.parametrize("policy", ("nucache", "nucache-ucp"))
    @pytest.mark.parametrize("deli_ways", (1, 4))
    def test_nucache_splits(self, policy, deli_ways):
        case = fuzz.FuzzCase(policy=policy, deli_ways=deli_ways, accesses=1200)
        assert _replay(case) is None

    def test_single_core_geometry_variant(self):
        case = fuzz.FuzzCase(policy="nucache", sets=8, ways=8, cores=1,
                             accesses=1200)
        assert _replay(case) is None


class TestDivergenceDetection:
    def test_fifo_corruption_is_caught(self):
        """Regression: an injected DeliWay-FIFO corruption must be caught."""

        def swap_fifo(llc):
            for nu_set in llc.sets:
                if len(nu_set.deli) >= 2:
                    entries = list(nu_set.deli.values())
                    entries[0].seq, entries[1].seq = entries[1].seq, entries[0].seq
                    return
            raise AssertionError("no set with two DeliWay lines to corrupt")

        case = fuzz.FuzzCase(policy="nucache", accesses=2000)
        outcome = _replay(case, corrupt_after=1500, corruptor=swap_fifo)
        assert outcome is not None
        violation, index = outcome
        assert index >= 1500
        assert any("FIFO order broken" in v for v in violation.violations)

    def test_recency_corruption_only_oracle_can_see(self):
        """A stack rotation keeps the permutation valid (sanitizer-clean)
        but diverges from the reference's recency order."""

        def rotate_stack(llc):
            for cache_set in llc.sets:
                stack = cache_set.policy.stack
                if len(cache_set._tag_to_way) >= 2:
                    stack.append(stack.pop(0))
                    return
            raise AssertionError("no populated set to corrupt")

        case = fuzz.FuzzCase(policy="lru", accesses=1000)
        outcome = _replay(case, corrupt_after=500, corruptor=rotate_stack)
        assert outcome is not None
        violation, _ = outcome
        assert any("diverged" in v for v in violation.violations)

    def test_counter_tamper_is_caught_without_sanitizer(self):
        case = fuzz.FuzzCase(policy="lru", accesses=50)
        harness = fuzz.build_harness(case)
        harness.sanitize = False  # isolate the oracle's counter diff
        stream = fuzz.generate_stream(case)
        for block_addr, core, pc, is_write in stream[:-1]:
            harness.access(block_addr, core, pc, is_write)
        harness.kernel.stats.total.hits += 1
        block_addr, core, pc, is_write = stream[-1]
        with pytest.raises(InvariantViolation) as info:
            harness.access(block_addr, core, pc, is_write)
        assert any("counter hits diverged" in v for v in info.value.violations)

    @pytest.mark.parametrize("policy", ("nucache", "nucache-ucp"))
    def test_forgotten_history_entry_diverges_the_profile(self, policy):
        """The data path and the sanitizer cannot see a lost Next-Use
        history entry; the profile lockstep does, at the epoch's end."""

        def forget_pending_eviction(llc):
            history = llc.controller.profiler._history
            if not history:
                raise AssertionError("no pending eviction to forget")
            history.popitem(last=False)

        case = fuzz.FuzzCase(policy=policy, accesses=2000)
        outcome = _replay(case, corrupt_after=900, corruptor=forget_pending_eviction)
        assert outcome is not None
        violation, index = outcome
        assert index >= 900
        assert all("Next-Use profile diverged" in v for v in violation.violations)

    def test_every_closed_epoch_is_compared(self, monkeypatch):
        case = fuzz.FuzzCase(policy="nucache", sample_period=2, accesses=1500)
        harness = fuzz.build_harness(case)
        compared = []
        original = harness._diff_profile

        def counting_diff():
            compared.append(harness.kernel.controller.epochs_completed)
            return original()

        monkeypatch.setattr(harness, "_diff_profile", counting_diff)
        for access in fuzz.generate_stream(case):
            harness.access(*access)
        epochs = harness.kernel.controller.epochs_completed
        assert epochs >= 3
        assert compared == list(range(1, epochs + 1))
        assert harness.kernel.controller.last_profile.num_events > 0

    def test_violation_snapshot_carries_both_views(self):
        case = fuzz.FuzzCase(policy="nucache", accesses=800)
        outcome = _replay(case, corrupt_after=700)
        assert outcome is not None
        violation, _ = outcome
        assert "reference" in violation.snapshot
        assert "access" in violation.snapshot


class TestMakeReference:
    def test_every_family_resolves(self):
        case = fuzz.FuzzCase(policy="lru")
        config = fuzz.system_config(case)
        for policy in FAMILIES + fuzz.EXTRA_POLICIES:
            assert make_reference(policy, config, seed=case.seed) is not None

    def test_structural_baselines_have_no_reference(self):
        case = fuzz.FuzzCase(policy="ucp")
        config = fuzz.system_config(case)
        with pytest.raises(ReproError, match="no differential reference"):
            make_reference("ucp", config)

    def test_harness_reports_hits_like_the_kernel(self):
        case = fuzz.FuzzCase(policy="lru", accesses=300)
        harness = fuzz.build_harness(case)
        shadow = make_llc("lru", fuzz.system_config(case), seed=case.seed)
        for block_addr, core, pc, is_write in fuzz.generate_stream(case):
            assert harness.access(block_addr, core, pc, is_write) == shadow.access(
                block_addr, core, pc, is_write
            )


class TestHarnessConstruction:
    def test_build_harness_pairs_kernel_and_reference(self):
        harness = fuzz.build_harness(fuzz.FuzzCase(policy="nucache"))
        assert isinstance(harness, DifferentialHarness)
        assert harness.kernel.name != ""
        assert harness.reference.deli_ways == 2
