"""Event-driven frontend: hazard ordering, NCQ slots, per-chip
schedulers, and the arrival-semantics data contract."""

import numpy as np
import pytest

from repro.check import differential_replay
from repro.config import FrontendConfig, SCHEMES, SimConfig, SSDConfig
from repro.errors import ConfigError
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from repro.sim.frontend import FrontendScheduler, Request
from repro.sim.nand_sched import NandScheduler
from repro.traces.model import OP_READ, OP_TRIM, OP_WRITE, Trace
from repro.traces.synthetic import SyntheticSpec, generate_trace
from repro.units import MIB


# ----------------------------------------------------------------------
# config block
# ----------------------------------------------------------------------
class TestFrontendConfig:
    def test_disabled_by_default(self):
        cfg = SimConfig()
        assert not cfg.frontend.enabled
        cfg.validate()

    def test_validation(self):
        with pytest.raises(ConfigError):
            FrontendConfig(window=0).validate()

    def test_replace_frontend(self):
        cfg = SimConfig().replace_frontend(enabled=True, window=8)
        assert cfg.frontend.enabled and cfg.frontend.window == 8
        assert not SimConfig().frontend.enabled


# ----------------------------------------------------------------------
# event ordering of the replay loop, observed on the bus
# ----------------------------------------------------------------------
def ordered_events(trace, **frontend):
    """Replay ``trace`` through the frontend on the tiny device and
    return ``(kind, rid, t)`` for every arrival, first flash command
    (the issue) and completion, in the order the loop handled them."""
    from repro.config import ObservabilityConfig
    from repro.obs.events import FlashOp, RequestArrive, RequestComplete

    sim = Simulator(
        make_ftl("ftl", FlashService(SSDConfig.tiny())),
        SimConfig(
            queue_depth=frontend.pop("queue_depth", None),
            frontend=FrontendConfig(enabled=True, **frontend),
            observability=ObservabilityConfig(enabled=True),
        ),
    )
    log, issued = [], set()

    def on_flash(e):
        if e.rid >= 0 and e.rid not in issued:
            issued.add(e.rid)
            log.append(("issue", e.rid, e.t))

    bus = sim._bus
    bus.subscribe(RequestArrive, lambda e: log.append(("arrive", e.rid, e.t)))
    bus.subscribe(FlashOp, on_flash)
    bus.subscribe(
        RequestComplete, lambda e: log.append(("complete", e.rid, e.t))
    )
    sim.run(trace)
    return log


def writes_at(times, offsets):
    n = len(times)
    return Trace(
        "order",
        np.asarray(times, dtype=np.float64),
        np.full(n, OP_WRITE, dtype=np.uint8),
        np.asarray(offsets, dtype=np.int64),
        np.full(n, 16, dtype=np.int64),
    )


class TestEventOrder:
    def test_events_leave_in_time_order(self):
        log = ordered_events(mixed_trace(), queue_depth=8)
        times = [t for _kind, _rid, t in log]
        assert times == sorted(times)
        assert {kind for kind, _rid, _t in log} == {
            "arrive", "issue", "complete"
        }

    def test_complete_then_arrive_then_issue_at_one_instant(self):
        (_, _, t0), (_, _, t1), (_, _, finish) = ordered_events(
            writes_at([0.0], [0]), queue_depth=1
        )
        assert t0 == t1 == 0.0 and finish > 0.0
        # a second request arrives exactly when the first completes and
        # needs the single NCQ slot the completion frees
        log = ordered_events(writes_at([0.0, finish], [0, 800]), queue_depth=1)
        assert [(kind, rid) for kind, rid, _t in log] == [
            ("arrive", 0), ("issue", 0),
            ("complete", 0), ("arrive", 1), ("issue", 1),
            ("complete", 1),
        ]
        assert [t for _k, _r, t in log[2:5]] == [finish] * 3

    def test_issues_at_one_instant_leave_in_fifo_order(self):
        # LPNs 0..3 hash to the tiny device's four chips, one each
        log = ordered_events(writes_at([0.0] * 4, [0, 16, 32, 48]))
        assert [(kind, rid) for kind, rid, _t in log[:8]] == [
            ("arrive", 0), ("arrive", 1), ("arrive", 2), ("arrive", 3),
            ("issue", 0), ("issue", 1), ("issue", 2), ("issue", 3),
        ]

    def test_one_heap_push_and_pop_per_request(self, monkeypatch):
        import heapq

        import repro.sim.engine as engine

        calls = {"heappush": 0, "heappop": 0}

        class Counting:
            @staticmethod
            def heappush(heap, item):
                calls["heappush"] += 1
                heapq.heappush(heap, item)

            @staticmethod
            def heappop(heap):
                calls["heappop"] += 1
                return heapq.heappop(heap)

        monkeypatch.setattr(engine, "heapq", Counting)
        trace = mixed_trace()
        sim = Simulator(
            make_ftl("across", FlashService(SSDConfig.tiny())),
            fe_sim_cfg(queue_depth=8),
        )
        sim.run(trace)
        assert calls == {"heappush": len(trace), "heappop": len(trace)}


# ----------------------------------------------------------------------
# scheduler unit tests
# ----------------------------------------------------------------------
def make_scheduler(issued, *, queue_depth=None, window=64, cache_hit=False,
                   num_chips=8):
    """A FrontendScheduler whose issue path just records rids.  Each
    request is queued on its own chip (``rid % num_chips``), so only
    the frontend's hazard and slot rules hold a request back."""
    sink = lambda req, now: issued.append(req.rid)  # noqa: E731
    nand = NandScheduler(num_chips, issue=sink)
    return FrontendScheduler(
        queue_depth=queue_depth,
        window=window,
        nand=nand,
        predict_chip=lambda req: req.rid % num_chips,
        probe_cache=lambda req, now: cache_hit,
        issue=sink,
    )


def req(rid, op, offset, size, arrival=0.0):
    return Request(rid, op, offset, size, arrival, False)


class TestHazardOrdering:
    def test_waw_blocks_overlapping_write(self):
        issued = []
        fe = make_scheduler(issued)
        w0 = req(0, OP_WRITE, 0, 16)
        w1 = req(1, OP_WRITE, 8, 16)  # overlaps [8, 16)
        fe.add(w0)
        fe.add(w1)
        fe.dispatch(0.0)
        assert issued == [0]
        assert fe.hazard_stalls == 1
        fe.on_complete(w0, 1.0)
        fe.dispatch(1.0)
        assert issued == [0, 1]

    def test_raw_blocks_read_behind_write(self):
        issued = []
        fe = make_scheduler(issued)
        w0 = req(0, OP_WRITE, 100, 8)
        r1 = req(1, OP_READ, 104, 8)
        fe.add(w0)
        fe.add(r1)
        fe.dispatch(0.0)
        assert issued == [0]
        fe.on_complete(w0, 1.0)
        fe.dispatch(1.0)
        assert issued == [0, 1]

    def test_war_blocks_write_behind_read(self):
        issued = []
        fe = make_scheduler(issued)
        r0 = req(0, OP_READ, 100, 8)
        w1 = req(1, OP_WRITE, 100, 8)
        fe.add(r0)
        fe.add(w1)
        fe.dispatch(0.0)
        assert issued == [0]
        fe.on_complete(r0, 1.0)
        fe.dispatch(1.0)
        assert issued == [0, 1]

    def test_trim_counts_as_write_both_ways(self):
        issued = []
        fe = make_scheduler(issued)
        t0 = req(0, OP_TRIM, 0, 32)
        r1 = req(1, OP_READ, 16, 4)   # RAW vs the trim
        t2 = req(2, OP_TRIM, 16, 4)   # WAR vs the read (transitively)
        for r in (t0, r1, t2):
            fe.add(r)
        fe.dispatch(0.0)
        assert issued == [0]
        fe.on_complete(t0, 1.0)
        fe.dispatch(1.0)
        assert issued == [0, 1]
        fe.on_complete(r1, 2.0)
        fe.dispatch(2.0)
        assert issued == [0, 1, 2]

    def test_reads_never_conflict(self):
        issued = []
        fe = make_scheduler(issued)
        fe.add(req(0, OP_READ, 0, 16))
        fe.add(req(1, OP_READ, 0, 16))
        fe.dispatch(0.0)
        assert issued == [0, 1]
        assert fe.hazard_stalls == 0

    def test_nonconflicting_request_overtakes_stalled_one(self):
        issued = []
        fe = make_scheduler(issued)
        w0 = req(0, OP_WRITE, 0, 16)
        w1 = req(1, OP_WRITE, 0, 16)    # WAW-stalled behind w0
        w2 = req(2, OP_WRITE, 1000, 16)  # independent extent
        for r in (w0, w1, w2):
            fe.add(r)
        fe.dispatch(0.0)
        assert issued == [0, 2]

    def test_transitive_order_through_held_requests(self):
        # w1 stalls behind w0; w2 overlaps w1 (but not w0) and must
        # not overtake it — arrival order within a conflict chain
        issued = []
        fe = make_scheduler(issued)
        w0 = req(0, OP_WRITE, 0, 16)
        w1 = req(1, OP_WRITE, 8, 16)
        w2 = req(2, OP_WRITE, 20, 8)  # overlaps w1's [8, 24) only
        for r in (w0, w1, w2):
            fe.add(r)
        fe.dispatch(0.0)
        assert issued == [0]
        fe.on_complete(w0, 1.0)
        fe.dispatch(1.0)
        assert issued == [0, 1]

    def test_window_bounds_the_scan(self):
        issued = []
        fe = make_scheduler(issued, window=2)
        fe.add(req(0, OP_WRITE, 0, 8))
        fe.add(req(1, OP_WRITE, 0, 8))    # stalled, scanned
        fe.add(req(2, OP_WRITE, 100, 8))  # beyond the window
        fe.dispatch(0.0)
        assert issued == [0]

    def test_dispatch_reports_a_window_cut_short_after_releases(self):
        issued = []
        fe = make_scheduler(issued, window=2)
        fe.add(req(0, OP_WRITE, 0, 8))
        fe.add(req(1, OP_WRITE, 0, 8))
        fe.add(req(2, OP_WRITE, 100, 8))
        # released 0, so 2 moved up into a window the pass had used up
        assert fe.dispatch(0.0)
        assert not fe.dispatch(0.0)
        assert issued == [0, 2]
        assert not fe.dispatch(0.0)
        assert issued == [0, 2]


class TestNCQSlots:
    def test_queue_depth_caps_nand_bound_requests(self):
        issued = []
        fe = make_scheduler(issued, queue_depth=2)
        for i in range(4):
            fe.add(req(i, OP_WRITE, 100 * i, 8))
        fe.dispatch(0.0)
        assert issued == [0, 1]
        assert fe.slots_used == 2

    def test_trim_bypasses_the_nand_queue(self):
        issued = []
        fe = make_scheduler(issued, queue_depth=1)
        w0 = req(0, OP_WRITE, 0, 8)
        t1 = req(1, OP_TRIM, 1000, 8)
        fe.add(w0)
        fe.add(t1)
        fe.dispatch(0.0)
        # the trim issues despite the single NCQ slot being held
        assert issued == [0, 1]
        assert fe.slots_used == 1
        assert t1.chip < 0

    def test_cache_hit_read_bypasses_the_nand_queue(self):
        issued = []
        fe = make_scheduler(issued, queue_depth=1, cache_hit=True)
        fe.add(req(0, OP_WRITE, 0, 8))
        fe.add(req(1, OP_READ, 1000, 8))
        fe.dispatch(0.0)
        assert issued == [0, 1]
        assert fe.cache_bypass == 1

    def test_slot_frees_on_completion(self):
        issued = []
        fe = make_scheduler(issued, queue_depth=1)
        w0 = req(0, OP_WRITE, 0, 8)
        w1 = req(1, OP_WRITE, 100, 8)
        fe.add(w0)
        fe.add(w1)
        fe.dispatch(0.0)
        assert issued == [0]
        fe.on_complete(w0, 1.0)
        fe.dispatch(1.0)
        assert issued == [0, 1]
        assert fe.slots_used == 1


class TestNandScheduler:
    def test_busy_chip_queues_excess(self):
        issued = []
        nand = NandScheduler(2, issue=lambda r, t: issued.append(r.rid))
        a, b, c = (req(i, OP_WRITE, 0, 8) for i in range(3))
        a.chip = b.chip = 0
        c.chip = 1
        nand.submit(a, 0.0)
        nand.submit(b, 0.0)  # chip 0 busy -> queued
        nand.submit(c, 0.0)  # chip 1 idle -> issues
        assert issued == [0, 2]
        assert nand.queued() == 1
        nand.on_complete(a, 1.0)
        assert issued == [0, 2, 1]

    def test_read_priority_pulls_read_ahead(self):
        issued = []
        nand = NandScheduler(1, read_priority=True,
                             issue=lambda r, t: issued.append(r.rid))
        w0, w1 = req(0, OP_WRITE, 0, 8), req(1, OP_WRITE, 16, 8)
        r2 = req(2, OP_READ, 32, 8)
        for r in (w0, w1, r2):
            r.chip = 0
            nand.submit(r, 0.0)
        assert issued == [0]
        nand.on_complete(w0, 1.0)
        # the queued read overtakes the older queued write
        assert issued == [0, 2]
        assert nand.reordered == 1

    def test_fifo_without_read_priority(self):
        issued = []
        nand = NandScheduler(1, read_priority=False,
                             issue=lambda r, t: issued.append(r.rid))
        w0, w1 = req(0, OP_WRITE, 0, 8), req(1, OP_WRITE, 16, 8)
        r2 = req(2, OP_READ, 32, 8)
        for r in (w0, w1, r2):
            r.chip = 0
            nand.submit(r, 0.0)
        nand.on_complete(w0, 1.0)
        assert issued == [0, 1]
        assert nand.reordered == 0


# ----------------------------------------------------------------------
# end-to-end: engine with the frontend on
# ----------------------------------------------------------------------
def fe_sim_cfg(**kw):
    base = dict(check_oracle=True, frontend=FrontendConfig(enabled=True))
    base.update(kw)
    return SimConfig(**base)


def mixed_trace(n=300, seed=11, footprint=4000):
    rng = np.random.default_rng(seed)
    ops = rng.choice(
        [OP_WRITE, OP_READ, OP_TRIM], size=n, p=[0.5, 0.45, 0.05]
    ).astype(np.uint8)
    offsets = rng.integers(0, footprint, n).astype(np.int64)
    sizes = rng.integers(1, 32, n).astype(np.int64)
    times = np.sort(rng.uniform(0, 50, n))
    return Trace("mixed", times, ops, offsets, sizes)


class TestFrontendEngine:
    def run(self, sim_cfg, trace=None, scheme="across"):
        svc = FlashService(SSDConfig.tiny())
        sim = Simulator(make_ftl(scheme, svc), sim_cfg)
        report = sim.run(trace if trace is not None else mixed_trace())
        return sim, report

    def test_oracle_verifies_every_read(self):
        sim, report = self.run(fe_sim_cfg(queue_depth=8))
        assert report.extra["oracle_reads_verified"] > 0
        assert "frontend_hazard_stalls" in report.extra

    def test_all_requests_accounted(self):
        trace = mixed_trace()
        _, report = self.run(fe_sim_cfg(), trace)
        n_trims = int((trace.ops == OP_TRIM).sum())
        assert report.extra["trim_count"] == n_trims
        counted = sum(
            s.count for s in report.latency.summaries().values()
        )
        assert counted == len(trace) - n_trims

    def test_digest_matches_sequential_replay(self):
        checked = fe_sim_cfg(queue_depth=16).replace_check(
            enabled=True, every=100
        )
        _, fe_report = self.run(checked)
        seq = checked.replace_frontend(enabled=False)
        _, seq_report = self.run(seq)
        assert (
            fe_report.extra["check_read_digest"]
            == seq_report.extra["check_read_digest"]
        )

    def test_deterministic_across_runs(self):
        from repro.experiments.benchgate import report_digest

        cfg = fe_sim_cfg(queue_depth=8)
        _, a = self.run(cfg)
        _, b = self.run(cfg)
        assert report_digest(a) == report_digest(b)

    def test_trim_completes_at_dram_speed_under_full_queue(self):
        # a slow big write holds the single NCQ slot; the trim neither
        # waits for the slot nor holds one
        ssd = SSDConfig.tiny()
        trace = Trace(
            "trimq",
            np.zeros(3),
            np.array([OP_WRITE, OP_TRIM, OP_WRITE], dtype=np.uint8),
            np.array([0, 5000 * 16, 6000 * 16], dtype=np.int64),
            np.array([512, 16, 16], dtype=np.int64),
        )
        svc = FlashService(ssd)
        sim = Simulator(
            make_ftl("ftl", svc),
            fe_sim_cfg(queue_depth=1, record_requests=True),
        )
        sim.run(trace)
        log = sim.request_log
        # rows land in completion order under the frontend; select by op
        trim_lat = log.latency[log.op == OP_TRIM]
        write_lat = np.sort(log.latency[log.op == OP_WRITE])
        assert trim_lat[0] == pytest.approx(ssd.timing.cache_access_ms)
        # the second write did wait for the big write's NCQ slot
        assert write_lat[0] > trim_lat[0]

    def test_hazard_stall_events_emitted(self):
        from repro.config import ObservabilityConfig
        from repro.obs.events import HazardStall

        svc = FlashService(SSDConfig.tiny())
        sim = Simulator(
            make_ftl("ftl", svc),
            fe_sim_cfg(
                observability=ObservabilityConfig(enabled=True),
            ),
        )
        stalls = []
        sim._bus.subscribe(HazardStall, stalls.append)
        trace = Trace(
            "waw",
            np.zeros(2),
            np.full(2, OP_WRITE, dtype=np.uint8),
            np.array([0, 8], dtype=np.int64),
            np.array([16, 16], dtype=np.int64),
        )
        sim.run(trace)
        assert len(stalls) == 1
        assert stalls[0].kind == "waw"
        assert (stalls[0].rid, stalls[0].blocker) == (1, 0)

    def test_hazard_invariant_checked_under_fuzzlike_load(self):
        checked = fe_sim_cfg(queue_depth=4).replace_check(
            enabled=True, every=64
        )
        _, report = self.run(checked, mixed_trace(400, seed=5))
        assert report.extra["check_sweeps"] > 0


class TestFrontendDifferential:
    @pytest.fixture(scope="class")
    def small_trace(self):
        cfg = SSDConfig.tiny()
        spec = SyntheticSpec(
            "fe-diff",
            250,
            0.6,
            0.25,
            9.0,
            footprint_sectors=int(cfg.logical_sectors * 0.6),
            seed=23,
        )
        return generate_trace(spec)

    def test_digests_agree_across_queue_depths(self, small_trace):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        res = differential_replay(
            small_trace,
            cfg,
            SimConfig(),
            schemes=("across",),
            every=100,
            compare_cache=False,
            compare_jobs=False,
            frontend=True,
            qd_sweep=(1, 8, 32),
        )
        assert res.ok, res.summary()

    def test_frontend_divergence_detected(self, small_trace, monkeypatch):
        import repro.check.differential as diff
        from repro.experiments.runner import run_trace

        def skewed(scheme, trace, cfg, sim_cfg=None, **kw):
            report = run_trace(scheme, trace, cfg, sim_cfg, **kw)
            if sim_cfg is not None and sim_cfg.frontend.enabled:
                report.extra["check_read_digest"] = "deadbeef" * 8
            return report

        monkeypatch.setattr(
            "repro.experiments.runner.run_trace", skewed
        )
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        res = diff.differential_replay(
            small_trace,
            cfg,
            SimConfig(),
            schemes=("ftl",),
            every=100,
            compare_cache=False,
            compare_jobs=False,
            frontend=True,
        )
        assert not res.ok
        assert any(f.kind == "frontend-divergence" for f in res.failures)


class TestVersusSequentialLoop:
    """ROADMAP's "one replay loop" question, answered: can the event
    frontend stand in for ``_run_sequential``?  Only where its extra
    rules cannot fire — which is the sequential loop.  These pin the
    facts (they pass before and after any change; a failure means a
    timing rule moved and docs/architecture.md §2 needs the new one)."""

    SCHEMES = ("ftl", "mrsm", "across")

    @staticmethod
    def both(scheme, cfg, trace, queue_depth):
        """``to_dict()`` of the sequential loop and of the frontend at
        ``window=1`` on an aged, GC-active device; the frontend's three
        own tallies and the host wall clock dropped."""
        base = SimConfig(
            aged_used=0.85, aged_valid=0.4, seed=9, queue_depth=queue_depth
        )
        out = []
        for sim_cfg in (base, base.replace_frontend(enabled=True, window=1)):
            sim = Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)
            doc = sim.run(trace).to_dict()
            del doc["wall_seconds"]
            doc["extra"] = {
                k: v for k, v in doc["extra"].items()
                if not k.startswith("frontend_")
            }
            out.append(doc)
        return out

    @pytest.fixture(scope="class")
    def vdi_trace(self):
        cfg = SSDConfig.tiny()
        spec = SyntheticSpec(
            "fe-vs-seq", 1500, 0.5, 0.22, 8.0,
            footprint_sectors=int(cfg.logical_sectors * 0.6), seed=5,
        )
        return generate_trace(spec)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_equal_at_queue_depth_one_without_data_cache(
        self, scheme, vdi_trace
    ):
        """QD 1, in-order release, no data cache: no hazard can stall,
        no chip queue can reorder, nothing bypasses the slot — field
        for field the sequential loop's report."""
        seq, fe = self.both(scheme, SSDConfig.tiny(), vdi_trace, 1)
        assert fe == seq

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_only_latency_differs_with_the_data_cache(
        self, scheme, vdi_trace
    ):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        seq, fe = self.both(scheme, cfg, vdi_trace, 1)
        assert [k for k in seq if seq[k] != fe[k]] == ["latency"]

    def test_the_rule_cached_read_bypasses_the_host_slot(self):
        """The first divergence, isolated: a fully cached read arriving
        while a write is in flight waits for the one host slot in the
        sequential loop and bypasses it in the frontend."""
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        trace = Trace(
            "rule",
            np.array([0.0, 100.0, 100.01]),
            np.array([OP_WRITE, OP_WRITE, OP_READ], np.uint8),
            np.array([0, 1600, 0]),
            np.array([16, 16, 16]),
        )
        read_latency = {}
        for enabled in (False, True):
            sim_cfg = SimConfig(
                queue_depth=1, record_requests=True
            ).replace_frontend(enabled=enabled, window=1)
            sim = Simulator(make_ftl("ftl", FlashService(cfg)), sim_cfg)
            report = sim.run(trace)
            assert report.counters.cache_hits == 1
            log = sim.request_log
            (read_latency[enabled],) = log.latency[log.op == OP_READ].tolist()
        cache_ms = cfg.timing.cache_access_ms
        assert read_latency[True] == pytest.approx(cache_ms)
        # the write issued at 100.0 holds the slot until it completes
        assert read_latency[False] > 100 * cache_ms

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_differs_at_unbounded_queue_depth(self, scheme, vdi_trace):
        """``queue_depth=None`` is the model every pinned digest was
        taken on: the sequential loop starts each request at arrival,
        the frontend adds hazard stalls and per-chip queues — so the
        frontend cannot replace the loop without re-pinning them."""
        seq, fe = self.both(scheme, SSDConfig.tiny(), vdi_trace, None)
        assert seq["latency"] != fe["latency"]
        assert seq["extra"] != fe["extra"]


class TestFrontendJobsDeterminism:
    def test_jobs_1_vs_4_bit_identical(self):
        from repro.experiments.benchgate import report_digest
        from repro.experiments.parallel import RunSpec, execute_runs
        from repro.experiments.runner import run_trace

        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        trace = mixed_trace(200, seed=3)
        sim_cfg = fe_sim_cfg(queue_depth=8)
        specs = [RunSpec.make(s, trace, cfg, sim_cfg) for s in SCHEMES]
        pooled = execute_runs(specs, jobs=4)
        for scheme, pooled_report in zip(SCHEMES, pooled.reports):
            serial = run_trace(scheme, trace, cfg, sim_cfg)
            assert report_digest(serial) == report_digest(pooled_report)
