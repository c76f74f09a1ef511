"""GC policy zoo: selection, scheduling and wear statistics."""

import pytest

from repro.config import SimConfig, SSDConfig
from repro.errors import ConfigError
from repro.experiments.runner import run_trace
from repro.flash.service import FlashService
from repro.flash.wear import projected_lifetime_writes, wear_stats
from repro.ftl.gc import GC_POLICIES, GarbageCollector
from repro.ftl.gc_policy import GcPolicy, PreemptivePolicy, make_policy
from repro.ftl.pagemap import PageMapFTL


def run_hot_cold(policy: str, cfg):
    """Hot/cold overwrite workload; returns (service, ftl)."""
    cfg = cfg.replace(gc_policy=policy)
    svc = FlashService(cfg)
    ftl = PageMapFTL(svc)
    spp = ftl.spp
    hot = max(4, ftl.logical_pages // 8)
    cold = hot  # one pass over a cold region first
    for lpn in range(cold):
        ftl.write((hot + lpn) * spp, spp, 0.0)
    for i in range(3 * svc.geom.num_pages):
        ftl.write((i % hot) * spp, spp, 0.0)
    return svc, ftl


class TestPolicySelection:
    def test_unknown_policy_rejected(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = PageMapFTL(svc)
        with pytest.raises(ValueError):
            GarbageCollector(svc, ftl.allocator, 0.1, 0.12,
                             policy="nope")

    def test_config_validates_policy(self):
        # "wear_aware" and "dual_pool" were policies once: exact copies
        # of greedy's decisions on every workload the repo runs;
        # "cost_benefit" and "windowed_greedy" too: above greedy's WA
        # in every cell of the measured grid (docs/gc_policies.md)
        for name in (
            "bogus", "wear_aware", "dual_pool", "cost_benefit",
            "windowed_greedy",
        ):
            with pytest.raises(ConfigError):
                SSDConfig(gc_policy=name).validate()

    def test_policies_constant(self):
        assert GC_POLICIES == ("greedy", "preemptive", "hot_cold")

    def test_make_policy_registry(self):
        for name in GC_POLICIES:
            policy = make_policy(name)
            assert isinstance(policy, GcPolicy)
            assert policy.name == name
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_collector_accepts_policy_object(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = PageMapFTL(svc)
        gc = GarbageCollector(
            svc, ftl.allocator, 0.1, 0.12,
            policy=make_policy("preemptive"),
        )
        assert gc.policy == "preemptive"


class TestAllPoliciesWork:
    @pytest.mark.parametrize("policy", GC_POLICIES)
    def test_policy_survives_pressure(self, policy, micro_cfg):
        svc, ftl = run_hot_cold(policy, micro_cfg)
        assert svc.counters.erases > 0
        ftl.check_invariants()
        svc.array.check_invariants()

    @pytest.mark.parametrize("policy", GC_POLICIES)
    def test_policy_preserves_data(self, policy, micro_cfg):
        cfg = micro_cfg.replace(gc_policy=policy)
        svc = FlashService(cfg)
        ftl = PageMapFTL(svc, track_payload=True)
        spp = ftl.spp
        hot = max(4, ftl.logical_pages // 8)
        version = {}
        for i in range(2 * svc.geom.num_pages):
            lpn = i % hot
            version[lpn] = i
            ftl.write(lpn * spp, spp, 0.0, i)
        for lpn, v in version.items():
            _, found = ftl.read(lpn * spp, spp, 0.0)
            assert all(found[s] == v for s in range(lpn * spp, (lpn + 1) * spp))


class TestHighGcThreshold:
    """A ``gc_threshold`` above the preemptive soft threshold is a valid
    device for every policy; ``preemptive`` then engages at the
    configured threshold, the higher of the two."""

    @pytest.mark.parametrize("policy", ["greedy", "preemptive"])
    def test_threshold_above_soft_threshold_replays(
        self, policy, tiny_cfg, small_trace
    ):
        assert 0.25 > PreemptivePolicy.SOFT_THRESHOLD
        # replace() validates
        cfg = tiny_cfg.replace(
            gc_policy=policy, gc_threshold=0.25, gc_restore=0.3
        )
        assert PageMapFTL(FlashService(cfg)).gc.threshold == 0.25
        sim_cfg = SimConfig(aged_used=0.9, aged_valid=0.398, check_oracle=True)
        rep = run_trace("ftl", small_trace, cfg, sim_cfg)
        assert rep.counters.erases > 0


class TestNewPolicyCharacter:
    def test_preemptive_runs_bounded_slices(self, micro_cfg):
        svc, ftl = run_hot_cold("preemptive", micro_cfg)
        gc = ftl.gc
        # the soft threshold starts collection earlier than gc_threshold
        assert gc.threshold == PreemptivePolicy.SOFT_THRESHOLD
        assert gc.hard_threshold == micro_cfg.gc_threshold
        assert gc.slices > 0
        # with an 8-page budget on 8-page blocks some victims still
        # carry valid pages when picked, producing deferrals; but even
        # if every victim fit in one slice, collections must have run
        assert gc.collections > 0

    def test_preemptive_slice_budget_respected(self, micro_cfg, monkeypatch):
        # uniform overwrites leave every block partially valid, so a
        # 2-page budget on 8-page blocks cannot finish a victim in one
        # slice: deferrals must appear
        import random

        monkeypatch.setattr(PreemptivePolicy, "SLICE_PAGES", 2)
        cfg = micro_cfg.replace(gc_policy="preemptive")
        svc = FlashService(cfg)
        ftl = PageMapFTL(svc)
        spp = ftl.spp
        n = ftl.logical_pages
        rng = random.Random(3)
        for _ in range(4 * svc.geom.num_pages):
            ftl.write(rng.randrange(n) * spp, spp, 0.0)
        gc = ftl.gc
        assert gc.slices > 0
        assert gc.deferrals > 0
        assert svc.counters.gc_deferrals > 0
        ftl.check_invariants()

    def test_hot_cold_separates_streams(self, micro_cfg):
        cfg = micro_cfg.replace(gc_policy="hot_cold")
        svc = FlashService(cfg)
        ftl = PageMapFTL(svc)
        # the policy alone turns stream separation on
        assert ftl.allocator.separate_streams
        svc2, ftl2 = run_hot_cold("hot_cold", micro_cfg)
        assert svc2.counters.erases > 0
        ftl2.check_invariants()

    def test_policy_counters_round_trip(self, micro_cfg, monkeypatch):
        from repro.metrics.counters import FlashOpCounters

        monkeypatch.setattr(PreemptivePolicy, "SLICE_PAGES", 2)
        svc, _ = run_hot_cold("preemptive", micro_cfg)
        snap = svc.counters.snapshot()
        assert snap["gc_slices"] == svc.counters.gc_slices
        rebuilt = FlashOpCounters.from_snapshot(snap)
        assert rebuilt.gc_slices == svc.counters.gc_slices
        assert rebuilt.gc_deferrals == svc.counters.gc_deferrals
        merged = rebuilt.merged_with(rebuilt)
        assert merged.gc_slices == 2 * svc.counters.gc_slices

    def test_greedy_snapshot_has_no_policy_keys(self, micro_cfg):
        svc, ftl = run_hot_cold("greedy", micro_cfg)
        snap = svc.counters.snapshot()
        assert "gc_slices" not in snap
        assert "gc_deferrals" not in snap
        stats = ftl.stats()
        assert "gc_policy" not in stats


class TestWearStats:
    def test_empty_device(self, micro_cfg):
        svc = FlashService(micro_cfg)
        st = wear_stats(svc.array)
        assert st.total_erases == 0 and st.gini == 0.0

    def test_after_workload(self, micro_cfg):
        svc, ftl = run_hot_cold("greedy", micro_cfg)
        st = wear_stats(svc.array)
        assert st.total_erases == svc.array.total_erases
        assert st.max >= st.mean >= st.min
        assert 0.0 <= st.gini <= 1.0
        assert "erases" in st.summary()

    def test_lifetime_projection(self, micro_cfg):
        svc, ftl = run_hot_cold("greedy", micro_cfg)
        writes = svc.counters.total_writes + svc.counters.writes[
            list(svc.counters.writes)[3]
        ]
        life = projected_lifetime_writes(svc.array, erase_limit=3000,
                                         writes_so_far=max(1, writes))
        assert life > 0

    def test_lifetime_infinite_when_unworn(self, micro_cfg):
        svc = FlashService(micro_cfg)
        assert projected_lifetime_writes(svc.array, 3000, 100) == float("inf")

    def test_bad_limit(self, micro_cfg):
        svc = FlashService(micro_cfg)
        with pytest.raises(ValueError):
            projected_lifetime_writes(svc.array, 0, 100)
