"""Simulation engine: request processing, classification, aging, cache."""

import numpy as np
import pytest

from repro.config import SimConfig, SSDConfig
from repro.errors import SimulationError
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from repro.traces.model import OP_READ, OP_WRITE, Trace


def make_sim(cfg=None, sim_cfg=None, scheme="ftl"):
    cfg = cfg or SSDConfig.tiny()
    svc = FlashService(cfg)
    ftl = make_ftl(scheme, svc)
    return Simulator(ftl, sim_cfg)


class TestProcess:
    def test_write_then_read_latency(self):
        sim = make_sim()
        lw = sim.process(OP_WRITE, 0, 16, 0.0)
        assert lw == pytest.approx(2.0)
        lr = sim.process(OP_READ, 0, 16, 10.0)
        assert lr == pytest.approx(0.075)

    def test_rejects_bad_size(self):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.process(OP_WRITE, 0, 0, 0.0)

    def test_rejects_out_of_space(self):
        sim = make_sim()
        limit = sim.ftl.logical_pages * sim.spp
        with pytest.raises(SimulationError):
            sim.process(OP_WRITE, limit - 4, 8, 0.0)

    @pytest.mark.parametrize("frontend", [False, True])
    def test_run_rejects_a_bad_extent_before_aging(self, frontend):
        from repro.config import FrontendConfig

        sim = make_sim(sim_cfg=SimConfig(
            aged_used=0.5, aged_valid=0.2,
            frontend=FrontendConfig(enabled=frontend),
        ))
        limit = sim.ftl.logical_pages * sim.spp
        trace = Trace.from_lists("bad", [
            (OP_WRITE, 0, 16, 0.0),
            (OP_READ, 64, 8, 1.0),
            (OP_WRITE, limit - 4, 8, 2.0),   # request 2 crosses the end
            (OP_WRITE, limit, 8, 3.0),
        ])
        with pytest.raises(SimulationError, match=(
            rf"request 2: extent \[{limit - 4}, {limit + 4}\) is not "
            rf"inside the logical space \[0, {limit}\)"
        )):
            sim.run(trace)
        assert sim.host == {}  # age_device never ran
        assert sim.ftl.counters.total_writes == 0
        assert sim.ftl.service.array.total_programs == 0

    def test_across_classification(self):
        sim = make_sim()
        sim.process(OP_WRITE, 8, 16, 0.0)   # across
        sim.process(OP_WRITE, 0, 16, 0.0)   # normal
        rec = sim.recorder
        assert rec.summary(rec.WRITE_ACROSS).count == 1
        assert rec.summary(rec.WRITE_NORMAL).count == 1

    def test_flush_attribution(self):
        sim = make_sim()
        sim.process(OP_WRITE, 8, 16, 0.0)   # across: two programs (baseline)
        sim.process(OP_WRITE, 0, 16, 0.0)   # normal: one program
        assert sim.flush_writes["across"] == 2
        assert sim.flush_writes["normal"] == 1
        assert sim.flush_sectors["across"] == 16


class TestDataCache:
    def test_read_hit_served_from_dram(self):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=1024 * 1024)
        sim = make_sim(cfg)
        sim.process(OP_WRITE, 0, 16, 0.0)
        lat = sim.process(OP_READ, 0, 16, 10.0)
        assert lat == pytest.approx(cfg.timing.cache_access_ms)
        assert sim.ftl.counters.cache_hits == 1
        assert sim.ftl.counters.data_reads == 0

    def test_read_allocate(self):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=1024 * 1024)
        sim = make_sim(cfg)
        sim.process(OP_WRITE, 0, 16, 0.0)
        # evict by writing many other pages
        for lpn in range(1, 200):
            sim.process(OP_WRITE, lpn * 16, 16, 0.0)
        first = sim.process(OP_READ, 0, 16, 1e6)
        second = sim.process(OP_READ, 0, 16, 2e6)
        assert first > second  # second read hits the cache

    def test_oracle_with_cache(self):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=1024 * 1024)
        sim = make_sim(cfg, SimConfig(check_oracle=True))
        sim.process(OP_WRITE, 0, 16, 0.0)
        sim.process(OP_READ, 0, 16, 1.0)    # cache hit, verified
        sim.process(OP_WRITE, 4, 4, 2.0)    # overwrite through cache
        sim.process(OP_READ, 0, 16, 3.0)    # must see the new stamps
        assert sim.oracle.reads_verified == 2


class TestAging:
    def test_aging_fractions(self):
        cfg = SSDConfig.tiny()
        sim = make_sim(cfg, SimConfig(aged_used=0.5, aged_valid=0.3))
        sim.age_device()
        arr = sim.ftl.service.array
        used_pages = cfg.num_pages - sum(
            arr.free_block_count(p) for p in range(cfg.num_planes)
        ) * cfg.pages_per_block
        assert used_pages >= int(0.45 * cfg.num_pages)
        valid_frac = arr.total_valid_pages / cfg.num_pages
        assert valid_frac == pytest.approx(0.3, abs=0.05)

    def test_aging_excluded_from_counters(self):
        sim = make_sim(SSDConfig.tiny(), SimConfig(aged_used=0.4, aged_valid=0.2))
        sim.age_device()
        c = sim.ftl.counters
        assert c.total_writes == 0
        assert c.erases == 0

    def test_aging_idempotent(self):
        sim = make_sim(SSDConfig.tiny(), SimConfig(aged_used=0.3, aged_valid=0.2))
        sim.age_device()
        before = sim.ftl.counters.writes.copy()
        sim.age_device()
        assert sim.ftl.counters.writes == before

    def test_aging_leaves_chips_idle(self):
        sim = make_sim(SSDConfig.tiny(), SimConfig(aged_used=0.3, aged_valid=0.2))
        sim.age_device()
        assert (sim.ftl.service.timeline.busy_until == 0).all()


class TestRun:
    def _trace(self, n=50):
        rng = np.random.default_rng(5)
        ops = rng.integers(0, 2, n).astype(np.uint8)
        offsets = rng.integers(0, 500, n) * 4
        sizes = rng.integers(1, 32, n)
        times = np.sort(rng.uniform(0, 1000, n))
        return Trace("t", times, ops, offsets, sizes)

    def test_run_produces_report(self):
        sim = make_sim()
        rep = sim.run(self._trace())
        assert rep.requests == 50
        assert rep.scheme == "ftl"
        assert rep.trace_name == "t"
        assert rep.latency.request_count == 50
        assert rep.mapping_table_bytes > 0
        assert rep.wall_seconds > 0

    def test_run_with_oracle_all_schemes(self):
        for scheme in ("ftl", "mrsm", "across"):
            sim = make_sim(scheme=scheme, sim_cfg=SimConfig(check_oracle=True))
            rep = sim.run(self._trace(120))
            assert rep.extra["oracle_reads_verified"] > 0

    def test_report_metric_lookup(self):
        sim = make_sim()
        rep = sim.run(self._trace())
        assert rep.metric("flash_writes") == rep.counters.total_writes
        assert rep.metric("gc_collections") == rep.extra["gc_collections"]
        with pytest.raises(KeyError):
            rep.metric("nope")


class TestPrintProgress:
    """The stderr progress line: width padding and ETA guards."""

    def test_shrinking_line_padded_to_previous_width(self, capsys):
        from repro.sim.engine import _print_progress

        # huge rate overflows its 8-char field -> a wide first line
        w1 = _print_progress("t", 999999, 1000000, 1e-6)
        w2 = _print_progress("t", 10, 1000000, 10.0, prev_width=w1)
        err = capsys.readouterr().err
        second = err.rsplit("\r", 1)[1]
        # the narrower second line is space-padded so no characters of
        # the first line survive after the carriage return
        assert w2 < w1
        assert len(second) == w1

    def test_zero_rate_renders_unknown_eta(self, capsys):
        from repro.sim.engine import _print_progress

        _print_progress("t", 0, 100, 0.0)
        err = capsys.readouterr().err
        assert "?s" in err
        assert "inf" not in err and "nan" not in err

    def test_final_line_shows_zero_eta(self, capsys):
        from repro.sim.engine import _print_progress

        _print_progress("t", 100, 100, 0.0, final=True)
        err = capsys.readouterr().err
        assert "?s" not in err
        assert err.endswith("\n")
