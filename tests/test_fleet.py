"""Fleet-scale composition and per-tenant QoS (repro.fleet)."""

import dataclasses

import numpy as np
import pytest

from repro.config import SimConfig, SSDConfig
from repro.errors import ConfigError, ReproError
from repro.experiments.runner import run_trace
from repro.fleet import (
    FleetConfig,
    PlanCache,
    aggregate_qos,
    compose_shards,
    fleet_summary,
    shard_of,
    tenant_weights,
)
from repro.fleet.workload import tenant_requests
from repro.metrics.report import SimulationReport


@pytest.fixture(scope="module")
def fleet_cfg():
    return FleetConfig(shards=2, tenants=6, requests_per_tenant=60, seed=7)


@pytest.fixture(scope="module")
def ssd_cfg():
    return SSDConfig.tiny()


@pytest.fixture(scope="module")
def plans(fleet_cfg, ssd_cfg):
    return compose_shards(fleet_cfg, ssd_cfg)


class TestConfig:
    def test_defaults_validate(self):
        FleetConfig().validate()

    def test_round_trip(self, fleet_cfg):
        assert FleetConfig.from_dict(fleet_cfg.to_dict()) == fleet_cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown FleetConfig"):
            FleetConfig.from_dict({"shardz": 3})

    @pytest.mark.parametrize("bad", [
        {"shards": 0},
        {"tenants": 0},
        {"shard_by": "rack"},
        {"requests_per_tenant": 0},
        {"zipf_s": 0.0},
        {"scheme": "bogus"},
        {"write_ratio": 1.5},
        {"mean_write_kb": 0.0},
        {"interarrival_ms": 0.0},
        {"tenant_sectors": -1},
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            FleetConfig(**bad).validate()


class TestRouting:
    def test_deterministic_across_calls(self, fleet_cfg):
        a = [shard_of(t, fleet_cfg) for t in range(fleet_cfg.tenants)]
        b = [shard_of(t, fleet_cfg) for t in range(fleet_cfg.tenants)]
        assert a == b

    def test_deterministic_across_processes(self, fleet_cfg):
        """blake2b routing, not Python's per-process-randomised hash."""
        import subprocess
        import sys

        code = (
            "from repro.fleet import FleetConfig, shard_of;"
            f"cfg = FleetConfig(shards=2, tenants=6, seed=7);"
            "print([shard_of(t, cfg) for t in range(6)])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={
                "PYTHONPATH": "src",
                "PYTHONHASHSEED": "random",
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        ).stdout.strip()
        here = str([shard_of(t, fleet_cfg) for t in range(6)])
        assert out == here

    def test_in_range(self, fleet_cfg):
        for t in range(fleet_cfg.tenants):
            assert 0 <= shard_of(t, fleet_cfg) < fleet_cfg.shards

    def test_lba_banding_is_contiguous(self):
        cfg = FleetConfig(shards=3, tenants=9, shard_by="lba")
        shards = [shard_of(t, cfg) for t in range(9)]
        assert shards == sorted(shards)
        assert set(shards) == {0, 1, 2}

    def test_out_of_range_tenant_rejected(self, fleet_cfg):
        with pytest.raises(ConfigError):
            shard_of(fleet_cfg.tenants, fleet_cfg)


class TestPopularity:
    def test_weights_normalised(self, fleet_cfg):
        w = tenant_weights(fleet_cfg)
        assert len(w) == fleet_cfg.tenants
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w > 0).all()

    def test_weights_are_skewed(self):
        cfg = FleetConfig(tenants=100, zipf_s=1.1)
        w = np.sort(tenant_weights(cfg))[::-1]
        # top-10% of tenants carry well over their proportional share
        assert w[:10].sum() > 0.4

    def test_every_tenant_issues_requests(self, fleet_cfg):
        counts = tenant_requests(fleet_cfg)
        assert (counts >= 1).all()
        total = fleet_cfg.requests_per_tenant * fleet_cfg.tenants
        assert abs(int(counts.sum()) - total) <= fleet_cfg.tenants


class TestComposer:
    def test_every_tenant_lands_once(self, plans, fleet_cfg):
        seen = [t for p in plans for t in p.tenant_ids]
        assert sorted(seen) == list(range(fleet_cfg.tenants))

    def test_offsets_stay_in_tenant_slices(self, plans):
        for plan in plans:
            if not plan.tenant_ids:
                continue
            idx = np.searchsorted(
                np.asarray(plan.boundaries), plan.trace.offsets,
                side="right",
            )
            # every request falls in an owned stream, never the remainder
            assert int(idx.max()) < len(plan.tenant_ids)

    def test_boundaries_page_aligned(self, plans, ssd_cfg):
        spp = ssd_cfg.page_size_bytes // 512
        for plan in plans:
            assert all(b % spp == 0 for b in plan.boundaries)
            assert plan.slice_sectors % spp == 0

    def test_deterministic(self, fleet_cfg, ssd_cfg, plans):
        again = compose_shards(fleet_cfg, ssd_cfg)
        for a, b in zip(plans, again):
            assert a.tenant_ids == b.tenant_ids
            assert a.boundaries == b.boundaries
            assert np.array_equal(a.trace.offsets, b.trace.offsets)
            assert np.array_equal(a.trace.times, b.trace.times)

    def test_too_many_tenants_rejected(self, ssd_cfg):
        cfg = FleetConfig(shards=1, tenants=10**6, requests_per_tenant=1)
        with pytest.raises(ConfigError, match="do not fit"):
            compose_shards(cfg, ssd_cfg)


class TestPlanCache:
    def test_cached_plans_equal_fresh_ones(self, fleet_cfg, ssd_cfg, plans):
        cache = PlanCache()
        first = cache.compose(fleet_cfg, ssd_cfg)
        again = cache.compose(fleet_cfg, ssd_cfg)
        assert again is first  # no second composition
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        assert len(first) == len(plans)
        for cached, fresh in zip(first, plans):
            assert cached.shard_id == fresh.shard_id
            assert cached.tenant_ids == fresh.tenant_ids
            assert cached.boundaries == fresh.boundaries
            assert cached.slice_sectors == fresh.slice_sectors
            assert cached.trace.name == fresh.trace.name
            for name in ("times", "ops", "offsets", "sizes"):
                a = getattr(cached.trace, name)
                b = getattr(fresh.trace, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_cached_arrays_are_read_only(self, fleet_cfg, ssd_cfg):
        cache = PlanCache()
        for plan in cache.compose(fleet_cfg, ssd_cfg):
            with pytest.raises(ValueError):
                plan.trace.offsets[:1] = 0
            with pytest.raises(ValueError):
                plan.trace.times[:1] = 0.0

    def test_run_keys_identical(self, fleet_cfg, ssd_cfg, plans):
        from repro.experiments.parallel import RunSpec

        def keys(some_plans):
            return [
                RunSpec.make(
                    fleet_cfg.scheme, p.trace, ssd_cfg,
                    SimConfig(qos_streams=p.boundaries),
                ).key()
                for p in some_plans
            ]

        cache = PlanCache()
        cache.compose(fleet_cfg, ssd_cfg)
        assert keys(cache.compose(fleet_cfg, ssd_cfg)) == keys(plans)

    @pytest.mark.parametrize("change", [
        {"seed": 8}, {"tenants": 5}, {"requests_per_tenant": 61},
    ])
    def test_changed_fleet_misses(self, fleet_cfg, ssd_cfg, change):
        import dataclasses

        cache = PlanCache()
        cache.compose(fleet_cfg, ssd_cfg)
        cache.compose(dataclasses.replace(fleet_cfg, **change), ssd_cfg)
        assert cache.stats() == {"hits": 0, "misses": 2, "entries": 2}

    def test_changed_device_misses(self, fleet_cfg, ssd_cfg):
        cache = PlanCache()
        a = cache.compose(fleet_cfg, ssd_cfg)
        b = cache.compose(fleet_cfg, ssd_cfg.replace(page_size_bytes=4096))
        assert cache.stats()["misses"] == 2
        assert a[0].boundaries != b[0].boundaries

    def test_entry_cap_evicts_least_recent(self, ssd_cfg):
        cache = PlanCache(max_entries=2)
        cfgs = [
            FleetConfig(shards=1, tenants=2, requests_per_tenant=10, seed=s)
            for s in range(3)
        ]
        cache.compose(cfgs[0], ssd_cfg)
        cache.compose(cfgs[1], ssd_cfg)
        cache.compose(cfgs[0], ssd_cfg)  # cfgs[1] is now the oldest
        cache.compose(cfgs[2], ssd_cfg)
        assert cache.stats()["entries"] == 2
        cache.compose(cfgs[0], ssd_cfg)
        assert cache.stats()["hits"] == 2
        cache.compose(cfgs[1], ssd_cfg)
        assert cache.stats()["misses"] == 4

    def test_request_cap_evicts_and_refuses(self, ssd_cfg):
        small = [
            FleetConfig(shards=1, tenants=2, requests_per_tenant=20, seed=s)
            for s in range(3)
        ]
        # two tenants x 20 requests = 40 a fleet: two fit under 100
        cache = PlanCache(max_entries=8, max_requests=100)
        for cfg in small:
            cache.compose(cfg, ssd_cfg)
        assert cache.stats()["entries"] == 2
        cache.compose(small[2], ssd_cfg)
        assert cache.stats()["hits"] == 1
        # a fleet over the cap on its own is composed, never kept
        big = FleetConfig(shards=1, tenants=2, requests_per_tenant=80)
        plans = cache.compose(big, ssd_cfg)
        assert sum(len(p.trace) for p in plans) > 100
        assert cache.stats()["entries"] == 2
        cache.compose(big, ssd_cfg)
        assert cache.stats()["hits"] == 1

    def test_threads_share_one_cache(self, fleet_cfg, ssd_cfg):
        import sys
        import threading

        cache = PlanCache(max_entries=2)
        cfgs = [
            FleetConfig(shards=1, tenants=2, requests_per_tenant=5, seed=s)
            for s in range(4)
        ]
        errors = []

        def worker(n):
            try:
                for i in range(40):
                    cfg = cfgs[(n + i) % len(cfgs)]
                    (plan,) = cache.compose(cfg, ssd_cfg)
                    if len(plan.trace) != 10:
                        errors.append("wrong plan")
            except Exception as exc:
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        stats = cache.stats()
        assert stats["entries"] <= 2
        assert stats["hits"] + stats["misses"] == 8 * 40


class TestQos:
    @pytest.fixture(scope="class")
    def reports(self, plans, fleet_cfg, ssd_cfg):
        out = []
        for plan in plans:
            sim_cfg = SimConfig(qos_streams=plan.boundaries)
            out.append(
                run_trace(fleet_cfg.scheme, plan.trace, ssd_cfg, sim_cfg)
            )
        return out

    def test_every_tenant_has_qos(self, plans, reports, fleet_cfg):
        qos = aggregate_qos(plans, reports)
        assert sorted(qos) == list(range(fleet_cfg.tenants))

    def test_request_counts_add_up(self, plans, reports):
        qos = aggregate_qos(plans, reports)
        per_shard = {p.shard_id: len(p.trace) for p in plans}
        for sid, total in per_shard.items():
            got = sum(
                r.requests for r in qos.values() if r.shard_id == sid
            )
            assert got == total

    def test_round_trip_through_report_json(self, plans, reports):
        """QoS survives the store: to_json → from_json → same rows."""
        direct = aggregate_qos(plans, reports)
        revived = [
            SimulationReport.from_json(r.to_json()) for r in reports
        ]
        assert aggregate_qos(plans, revived) == direct

    def test_latencies_positive(self, plans, reports):
        qos = aggregate_qos(plans, reports)
        for row in qos.values():
            assert row.requests > 0
            assert row.p99_ms >= row.p50_ms >= 0.0
            assert row.throughput_rps > 0.0

    def test_summary_rollup(self, plans, reports):
        qos = aggregate_qos(plans, reports)
        s = fleet_summary(qos)
        assert s["tenants"] == len(qos)
        assert s["requests"] == sum(r.requests for r in qos.values())
        assert s["worst_p99_ms"] == max(r.p99_ms for r in qos.values())
        assert s["worst_p99_tenant"] in qos

    def test_empty_summary(self):
        assert fleet_summary({})["tenants"] == 0

    def test_row_dict_equals_asdict(self, plans, reports):
        """A row's plain-dict form is ``dataclasses.asdict``'s, keys in
        field order, without its deep copy."""
        row = next(iter(aggregate_qos(plans, reports).values()))
        doc = row.to_dict()
        assert doc == dataclasses.asdict(row)
        assert list(doc) == [f.name for f in dataclasses.fields(row)]

    def test_missing_streams_section_raises(self, plans, reports):
        stripped = [
            SimulationReport.from_dict(
                {k: v for k, v in r.to_dict().items() if k != "streams"}
            )
            for r in reports
        ]
        with pytest.raises(ReproError, match="no streams section"):
            aggregate_qos(plans, stripped)

    def test_failed_shard_contributes_nothing(self, plans, reports):
        qos = aggregate_qos(plans, [reports[0]] + [None] * (len(plans) - 1))
        assert set(qos) == set(plans[0].tenant_ids)

    def test_mismatched_lengths_rejected(self, plans, reports):
        with pytest.raises(ReproError):
            aggregate_qos(plans, reports[:-1])
