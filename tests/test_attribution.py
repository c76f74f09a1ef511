"""Latency attribution (repro.obs.attribution): the frontier ledger,
the phase-conservation law on the pinned bench scenarios, and the
sketch accuracy bound against exact numpy percentiles."""

import numpy as np
import pytest

from conftest import build_ftl
from repro.config import SimConfig, SSDConfig
from repro.experiments.benchgate import scenarios
from repro.experiments.runner import run_trace
from repro.metrics.report import SimulationReport
from repro.metrics.sketch import LogHistogram
from repro.obs.attribution import PHASES, REQUEST_CLASSES, AttributionRecorder


# ----------------------------------------------------------------------
# recorder unit behaviour
# ----------------------------------------------------------------------
class TestRecorderLedger:
    def test_queue_phase_from_delayed_start(self):
        r = AttributionRecorder()
        r.begin(arrival=10.0, start=12.5)
        phases = r.complete("read_normal", 2.5)
        assert phases == {"queue": pytest.approx(2.5)}

    def test_single_op_segments(self):
        r = AttributionRecorder()
        r.begin(0.0, 0.0)
        # read issued at 0, starts immediately, cell 0.05, bus to 0.07
        r.record(0, 0.0, 0.0, (("flash_read", 0.05), ("bus_xfer", 0.07)))
        phases = r.complete("read_normal", 0.07)
        assert phases["flash_read"] == pytest.approx(0.05)
        assert phases["bus_xfer"] == pytest.approx(0.02)

    def test_wait_split_against_background(self):
        r = AttributionRecorder()
        r.begin(0.0, 0.0)
        r.note_background(3, 1.0)  # chip 3 busy with GC until t=1
        # op issued at 0 but chip free only at 1.5: 1.0 of the wait is
        # GC, the remaining 0.5 other-host-traffic
        r.record(3, 0.0, 1.5, (("flash_read", 1.55),))
        phases = r.complete("read_normal", 1.55)
        assert phases["gc_stall"] == pytest.approx(1.0)
        assert phases["chip_wait"] == pytest.approx(0.5)
        assert phases["flash_read"] == pytest.approx(0.05)

    def test_off_critical_path_op_costs_nothing(self):
        r = AttributionRecorder()
        r.begin(0.0, 0.0)
        r.record(0, 0.0, 0.0, (("flash_read", 1.0),))
        # a parallel sub-request that finished earlier than the frontier
        r.record(1, 0.0, 0.0, (("flash_read", 0.4),))
        phases = r.complete("read_normal", 1.0)
        assert phases == {"flash_read": pytest.approx(1.0)}

    def test_suspended_ops_only_mark_background(self):
        r = AttributionRecorder()
        r.begin(0.0, 0.0)
        r.suspend()
        r.record(2, 0.0, 0.0, (("flash_read", 5.0),))
        r.resume()
        phases = r.complete("read_normal", 0.0)
        assert phases == {}
        assert r._bg_busy[2] == 5.0

    def test_conservation_by_construction(self):
        """Phases telescope to finish - arrival for any op sequence."""
        rng = np.random.default_rng(11)
        r = AttributionRecorder()
        arrival, start = 5.0, 6.0
        r.begin(arrival, start)
        t = start
        finish = start
        for _ in range(50):
            issue = t
            wait_end = issue + rng.random()
            end = wait_end + rng.random()
            r.record(int(rng.integers(0, 4)), issue, wait_end,
                     (("flash_read", end),))
            finish = max(finish, end)
            if rng.random() < 0.5:
                t = end  # serial dependency
        phases = r.complete("read_normal", finish - arrival)
        assert sum(phases.values()) == pytest.approx(
            finish - arrival, abs=1e-9
        )

    def test_phase_vocabulary_closed(self):
        assert len(set(PHASES)) == len(PHASES)
        assert set(REQUEST_CLASSES) == {
            "read_normal", "read_across", "write_normal", "write_across",
            "trim",
        }


class TestSketchFeeding:
    def test_complete_feeds_class_and_total_sketches(self):
        r = AttributionRecorder()
        r.begin(0.0, 0.0)
        r.record(0, 0.0, 0.0, (("flash_read", 0.05),))
        r.complete("read_across", 0.05)
        assert r.sketches[("read_across", "flash_read")].count == 1
        assert r.sketches[("read_across", "total")].count == 1
        assert r.class_counts == {"read_across": 1}

    def test_summary_round_trips_sketches(self):
        r = AttributionRecorder()
        for lat in (0.1, 0.5, 2.0):
            r.begin(0.0, 0.0)
            r.record(0, 0.0, 0.0, (("flash_read", lat),))
            r.complete("read_normal", lat)
        s = r.summary()
        h = LogHistogram.from_dict(s["sketches"]["read_normal/total"])
        assert h.count == 3
        assert h.total == pytest.approx(2.6)

    def test_mean_phase_breakdown(self):
        s = {
            "requests": {"read_normal": 4},
            "phase_ms": {"read_normal": {"flash_read": 2.0}},
        }
        means = AttributionRecorder.mean_phase_breakdown(s)
        assert means["read_normal"]["flash_read"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# re-align overhead labels (update / merged reads)
# ----------------------------------------------------------------------
class TestReadLabels:
    def test_merged_read_phase(self):
        # one chip so the merged read's normal-page reads serialize
        # behind the area read and land on the critical path
        cfg = SSDConfig(
            channels=1, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=2, blocks_per_plane=32, pages_per_block=16,
            page_size_bytes=8 * 1024, write_buffer_bytes=0,
        )
        svc, ftl = build_ftl("across", cfg)
        ftl.write(2048, 16, 0.0, 1)
        ftl.write(2064, 16, 0.0, 2)
        ftl.write(2056, 12, 0.0, 3)  # area
        rec = AttributionRecorder()
        svc.attr = rec
        rec.begin(100.0, 100.0)
        ftl.read(2052, 20, 100.0)  # exceeds the area: merged read
        phases = rec.complete("read_across", 0.0)
        assert phases.get("merged_read", 0.0) > 0.0
        assert svc.counters.merged_reads == 2

    def test_rmw_update_read_phase(self, tiny_cfg):
        svc, ftl = build_ftl("ftl", tiny_cfg)
        ftl.write(0, 16, 0.0, 1)
        rec = AttributionRecorder()
        svc.attr = rec
        rec.begin(100.0, 100.0)
        ftl.write(0, 4, 100.0, 2)  # partial: RMW
        phases = rec.complete("write_normal", 0.0)
        assert phases.get("update_read", 0.0) > 0.0
        assert phases.get("flash_read", 0.0) == 0.0


# ----------------------------------------------------------------------
# full-run conservation + engine wiring
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bench_attr_reports():
    """All five pinned bench scenarios with attribution and the
    per-request conservation invariant armed (a violation raises)."""
    reports = {}
    for sc in scenarios():
        cfg = sc.make_cfg()
        trace = sc.make_trace(cfg)
        sim_cfg = sc.make_sim_cfg().replace_observability(
            enabled=True, attribution=True
        ).replace_check(enabled=True, every=512)
        reports[sc.name] = run_trace(sc.scheme, trace, cfg, sim_cfg)
    return reports


class TestBenchScenarioConservation:
    def test_all_scenarios_complete_with_invariant_armed(
        self, bench_attr_reports
    ):
        """run_trace raises InvariantViolation on any per-request
        conservation miss, so five reports mean the law held for every
        request of every scenario."""
        assert len(bench_attr_reports) == 5

    def test_aggregate_phase_sums_match_total_latency(
        self, bench_attr_reports
    ):
        for name, rep in bench_attr_reports.items():
            a = rep.attribution
            total = sum(
                ms for totals in a["phase_ms"].values()
                for ms in totals.values()
            )
            assert total == pytest.approx(
                rep.latency.total_ms, abs=1e-6
            ), name

    def test_phases_stay_in_vocabulary(self, bench_attr_reports):
        for rep in bench_attr_reports.values():
            for totals in rep.attribution["phase_ms"].values():
                assert set(totals) <= set(PHASES)

    def test_request_counts_match(self, bench_attr_reports):
        for rep in bench_attr_reports.values():
            assert sum(rep.attribution["requests"].values()) == rep.requests

    def test_media_retry_attributed_under_faults(self, bench_attr_reports):
        rep = bench_attr_reports["faults-stress-ftl"]
        retry_ms = sum(
            t.get("media_retry", 0.0)
            for t in rep.attribution["phase_ms"].values()
        )
        assert rep.counters.read_retries > 0
        assert retry_ms > 0.0


class TestSketchAccuracy:
    @pytest.mark.parametrize(
        "name", ["fig09-lun1-ftl", "fig09-lun1-mrsm", "fig09-lun1-across"]
    )
    def test_tail_quantiles_within_one_bucket(
        self, bench_attr_reports, name
    ):
        """p99/p99.9 from the streaming sketch vs exact numpy
        percentiles of the recorded per-class latency samples: within
        the log-bucket half-width (<= 5% relative)."""
        rep = bench_attr_reports[name]
        samples = rep.latency.to_dict()["samples"]
        sketches = {
            k.split("/")[0]: LogHistogram.from_dict(v)
            for k, v in rep.attribution["sketches"].items()
            if k.endswith("/total")
        }
        for cls, payload in samples.items():
            lats = np.asarray(payload["latencies"])
            if lats.size < 100:
                continue
            h = sketches[cls]
            assert h.count == lats.size
            for q in (0.99, 0.999):
                exact = float(np.quantile(lats, q, method="inverted_cdf"))
                est = h.quantile(q)
                assert abs(est - exact) / exact <= 0.05, (name, cls, q)


class TestReportRoundTrip:
    def test_attribution_survives_to_dict_from_dict(
        self, bench_attr_reports
    ):
        rep = bench_attr_reports["fig09-lun1-ftl"]
        back = SimulationReport.from_dict(rep.to_dict())
        assert back.attribution == rep.attribution

    def test_disabled_run_omits_attribution_key(self, tiny_cfg):
        from repro.traces.synthetic import SyntheticSpec, VDIWorkloadGenerator

        spec = SyntheticSpec(
            "attr-off", 200, 0.5, 0.2, 8.0,
            footprint_sectors=tiny_cfg.logical_sectors // 2, seed=3,
        )
        trace = VDIWorkloadGenerator(spec).generate()
        rep = run_trace("ftl", trace, tiny_cfg, SimConfig())
        assert rep.attribution is None
        assert "attribution" not in rep.to_dict()


class TestEnginePhasesEvent:
    def test_request_phases_emitted_and_conserve(self, tiny_cfg):
        from repro.flash.service import FlashService
        from repro.ftl import make_ftl
        from repro.obs.events import RequestComplete, RequestPhases
        from repro.sim.engine import Simulator
        from repro.traces.synthetic import SyntheticSpec, VDIWorkloadGenerator

        spec = SyntheticSpec(
            "attr-ev", 300, 0.6, 0.25, 8.0,
            footprint_sectors=tiny_cfg.logical_sectors // 2, seed=5,
        )
        trace = VDIWorkloadGenerator(spec).generate()
        sim_cfg = SimConfig().replace_observability(
            enabled=True, attribution=True
        )
        service = FlashService(tiny_cfg)
        sim = Simulator(make_ftl("ftl", service), sim_cfg)
        latencies = {}
        phase_events = {}
        sim.obs.bus.subscribe(
            RequestComplete, lambda e: latencies.__setitem__(e.rid, e.latency)
        )
        sim.obs.bus.subscribe(
            RequestPhases,
            lambda e: phase_events.__setitem__(e.rid, dict(e.phases)),
        )
        sim.run(trace)
        assert phase_events
        for rid, phases in phase_events.items():
            assert sum(phases.values()) == pytest.approx(
                latencies[rid], abs=1e-9
            )
