"""TRIM/discard support in all three schemes, the engine, cache, oracle."""

import pytest

from repro.config import SimConfig, SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from repro.traces.model import OP_READ, OP_TRIM, OP_WRITE
from conftest import build_ftl


class TestPageMapTrim:
    def test_full_page_trim_invalidates(self, tiny_cfg):
        svc, ftl = build_ftl("ftl", tiny_cfg)
        ftl.write(0, 16, 0.0, 1)
        ppn = int(ftl.pmt[0])
        ftl.trim(0, 16, 1.0)
        assert not svc.array.is_valid(ppn)
        assert ftl.pmt[0] == -1
        _, found = ftl.read(0, 16, 2.0)
        assert found == {}

    def test_partial_trim_keeps_page(self, tiny_cfg):
        svc, ftl = build_ftl("ftl", tiny_cfg)
        ftl.write(0, 16, 0.0, 1)
        ftl.trim(0, 8, 1.0)
        assert svc.array.is_valid(int(ftl.pmt[0]))
        _, found = ftl.read(0, 16, 2.0)
        assert set(found) == set(range(8, 16))

    def test_trim_unwritten_noop(self, tiny_cfg):
        svc, ftl = build_ftl("ftl", tiny_cfg)
        t = ftl.trim(100, 32, 5.0)
        assert t == pytest.approx(5.001)

    def test_trim_then_rewrite_no_rmw(self, tiny_cfg):
        svc, ftl = build_ftl("ftl", tiny_cfg)
        ftl.write(0, 16, 0.0, 1)
        ftl.trim(0, 16, 1.0)
        before = svc.counters.update_reads
        ftl.write(0, 4, 2.0, 2)  # fresh page: no RMW
        assert svc.counters.update_reads == before


class TestAcrossTrim:
    def test_full_area_trim_releases(self, tiny_cfg):
        svc, ftl = build_ftl("across", tiny_cfg)
        ftl.write(2056, 12, 0.0, 1)
        appn = next(ftl.amt.entries()).appn
        ftl.trim(2056, 12, 1.0)
        assert len(ftl.amt) == 0
        assert not svc.array.is_valid(appn)
        assert ftl.aidx[128] == -1
        _, found = ftl.read(2048, 32, 2.0)
        assert found == {}
        ftl.check_invariants()

    def test_wider_trim_covers_area(self, tiny_cfg):
        svc, ftl = build_ftl("across", tiny_cfg)
        ftl.write(2056, 12, 0.0, 1)
        ftl.trim(2048, 32, 1.0)  # both full pages
        assert len(ftl.amt) == 0
        ftl.check_invariants()

    def test_partial_area_trim_preserves_survivors(self, tiny_cfg):
        svc, ftl = build_ftl("across", tiny_cfg)
        ftl.write(2056, 12, 0.0, 1)  # area 2056..2068
        ftl.trim(2056, 4, 1.0)  # drop the first 4 sectors only
        assert len(ftl.amt) == 0  # area rolled back
        _, found = ftl.read(2048, 32, 2.0)
        assert set(found) == set(range(2060, 2068))
        assert all(v == 1 for v in found.values())
        ftl.check_invariants()

    def test_trim_normal_data_keeps_area(self, tiny_cfg):
        svc, ftl = build_ftl("across", tiny_cfg)
        ftl.write(2048, 4, 0.0, 1)   # normal head
        ftl.write(2056, 12, 0.0, 2)  # area
        ftl.trim(2048, 4, 1.0)
        assert len(ftl.amt) == 1
        _, found = ftl.read(2048, 32, 2.0)
        assert set(found) == set(range(2056, 2068))
        ftl.check_invariants()


class TestMRSMTrim:
    def test_region_trim_kills_slot(self, tiny_cfg):
        svc, ftl = build_ftl("mrsm", tiny_cfg)
        ftl.write(0, 16, 0.0, 1)
        ppn, _ = ftl.region_loc(0)
        ftl.trim(0, 16, 1.0)
        assert not svc.array.is_valid(ppn)
        assert ftl.region_count == 0
        _, found = ftl.read(0, 16, 2.0)
        assert found == {}
        ftl.check_invariants()

    def test_partial_region_trim(self, tiny_cfg):
        svc, ftl = build_ftl("mrsm", tiny_cfg)
        ftl.write(0, 16, 0.0, 1)
        ftl.trim(0, 2, 1.0)  # half of region 0
        assert ftl.region_loc(0) is not None
        _, found = ftl.read(0, 4, 2.0)
        assert set(found) == {2, 3}
        ftl.check_invariants()


class TestEngineTrim:
    def test_trim_through_engine_with_oracle(self):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=1024 * 1024)
        svc = FlashService(cfg)
        ftl = make_ftl("across", svc)
        sim = Simulator(ftl, SimConfig(check_oracle=True))
        sim.process(OP_WRITE, 2056, 12, 0.0)
        sim.process(OP_READ, 2056, 12, 1.0)
        sim.process(OP_TRIM, 2056, 12, 2.0)
        sim.process(OP_READ, 2056, 12, 3.0)  # oracle expects nothing now
        assert sim.trim_count == 1
        assert sim.oracle.reads_verified == 2

    def test_trim_invalidates_cached_copy(self):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=1024 * 1024)
        svc = FlashService(cfg)
        ftl = make_ftl("ftl", svc)
        sim = Simulator(ftl, SimConfig(check_oracle=True))
        sim.process(OP_WRITE, 0, 16, 0.0)
        sim.process(OP_TRIM, 0, 16, 1.0)
        # a cache hit returning stale data would fail oracle.verify
        sim.process(OP_READ, 0, 16, 2.0)

    def test_trim_frees_space_for_gc(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = make_ftl("ftl", svc)
        sim = Simulator(ftl)
        spp = ftl.spp
        n = ftl.logical_pages // 2
        for lpn in range(n):
            sim.process(OP_WRITE, lpn * spp, spp, 0.0)
        sim.process(OP_TRIM, 0, n * spp // 2, 1.0)
        # rewriting trimmed space must not raise OutOfSpace
        for lpn in range(n // 2):
            sim.process(OP_WRITE, lpn * spp, spp, 2.0)


class TestTrimRequestLog:
    """Regression: TRIMs used to be dropped from the per-request log,
    breaking the one-row-per-serviced-request contract."""

    def run_mixed(self, cfg, scheme="ftl"):
        svc = FlashService(cfg)
        sim = Simulator(
            make_ftl(scheme, svc), SimConfig(record_requests=True)
        )
        sim.process(OP_WRITE, 0, 16, 0.0)
        sim.process(OP_TRIM, 0, 8, 1.0)
        sim.process(OP_READ, 8, 8, 2.0)
        sim.process(OP_TRIM, 100, 32, 3.0)
        return sim

    def test_one_row_per_request(self, tiny_cfg):
        sim = self.run_mixed(tiny_cfg)
        log = sim.request_log
        assert len(log) == 4
        assert log.op.tolist() == [OP_WRITE, OP_TRIM, OP_READ, OP_TRIM]

    def test_trim_rows_carry_no_flush(self, tiny_cfg):
        log = self.run_mixed(tiny_cfg).request_log
        trims = log.op == OP_TRIM
        assert trims.sum() == 2
        assert (log.flush[trims] == 0).all()
        assert (log.latency[trims] >= 0).all()
        assert log.time[trims].tolist() == [1.0, 3.0]

    def test_recorder_still_excludes_trims(self, tiny_cfg):
        sim = self.run_mixed(tiny_cfg)
        # the four Fig. 4 buckets stay read/write only
        assert sim.recorder.request_count == 2
        assert sim.trim_count == 2

    def test_trim_rows_in_full_run(self, tiny_cfg):
        import numpy as np
        from repro.traces.model import Trace

        n = 30
        ops = np.full(n, OP_WRITE, dtype=np.uint8)
        ops[1::3] = OP_TRIM
        trace = Trace(
            "trimmy",
            np.arange(n, dtype=np.float64),
            ops,
            (np.arange(n, dtype=np.int64) % 8) * 16,
            np.full(n, 16, dtype=np.int64),
        )
        svc = FlashService(tiny_cfg)
        sim = Simulator(make_ftl("across", svc),
                        SimConfig(record_requests=True))
        rep = sim.run(trace)
        assert len(sim.request_log) == n
        assert rep.extra["trim_count"] == int((ops == OP_TRIM).sum())
