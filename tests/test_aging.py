"""Device aging styles (paper §4.1 pre-conditioning)."""

import pytest

from repro.config import SimConfig, SSDConfig
from repro.errors import ConfigError
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.metrics.counters import OpKind
from repro.sim.engine import Simulator


def aged_sim(scheme, style, cfg=None, used=0.5, valid=0.3):
    cfg = cfg or SSDConfig.tiny()
    svc = FlashService(cfg)
    ftl = make_ftl(scheme, svc)
    sim = Simulator(
        ftl,
        SimConfig(aged_used=used, aged_valid=valid, aging_style=style),
    )
    sim.age_device()
    return svc, ftl, sim


class TestVdiAging:
    def test_reaches_used_target(self):
        svc, ftl, sim = aged_sim("ftl", "vdi")
        assert svc.counters.writes[OpKind.AGING] >= int(
            0.5 * svc.geom.num_pages
        )

    def test_measured_counters_clean(self):
        svc, ftl, sim = aged_sim("across", "vdi")
        c = svc.counters
        assert c.total_writes == 0
        assert c.total_reads == 0
        assert c.erases == 0
        assert c.update_reads == 0

    def test_across_stats_clean_after_aging(self):
        svc, ftl, sim = aged_sim("across", "vdi")
        st = ftl.across_stats
        assert st.direct_writes == 0
        assert st.unprofitable_amerge == 0
        assert st.rollbacks == 0
        assert st.areas_created == 0
        # ... even though the AMT itself may hold warm-up areas
        assert ftl.amt.total_created >= len(ftl.amt)

    def test_mrsm_tables_fragmented_by_vdi_aging(self):
        _, aligned_ftl, _ = aged_sim("mrsm", "aligned")
        _, vdi_ftl, _ = aged_sim("mrsm", "vdi")
        # aligned full-page aging leaves coarse entries; VDI aging's
        # sub-page writes fragment the table (the paper's warm-up trace
        # effect behind Fig. 12a)
        assert not aligned_ftl.fragmented.any()
        assert vdi_ftl.fragmented.any()

    def test_chips_idle_after_vdi_aging(self):
        svc, ftl, sim = aged_sim("ftl", "vdi")
        assert (svc.timeline.busy_until == 0).all()

    def test_oracle_clean_run_after_vdi_aging(self):
        cfg = SSDConfig.tiny()
        svc = FlashService(cfg)
        ftl = make_ftl("across", svc)
        sim = Simulator(
            ftl,
            SimConfig(
                aged_used=0.5,
                aged_valid=0.3,
                aging_style="vdi",
                check_oracle=True,
            ),
        )
        sim.age_device()
        from repro.traces.model import OP_READ, OP_WRITE

        # overwrite aged data and read it back: only fresh stamps count
        sim.process(OP_WRITE, 2056, 12, 0.0)
        sim.process(OP_READ, 2048, 32, 1.0)
        assert sim.oracle.reads_verified == 1


class TestAgeWithTrace:
    def test_user_trace_warmup(self):
        import numpy as np

        from repro.traces.model import OP_READ, OP_WRITE, Trace

        cfg = SSDConfig.tiny()
        svc = FlashService(cfg)
        ftl = make_ftl("across", svc)
        sim = Simulator(ftl)
        n = 300
        rng = np.random.default_rng(2)
        warm = Trace(
            "warm",
            np.arange(n, dtype=float),
            np.where(rng.random(n) < 0.7, OP_WRITE, OP_READ).astype(np.uint8),
            (rng.integers(0, 400, n) * 16).astype(np.int64),
            rng.integers(1, 32, n).astype(np.int64),
        )
        sim.age_with_trace(warm)
        c = svc.counters
        assert c.writes[OpKind.AGING] > 0
        assert c.total_writes == 0  # warm-up excluded from measurement
        assert (svc.timeline.busy_until == 0).all()
        # a second call is a no-op (already aged)
        before = c.writes[OpKind.AGING]
        sim.age_with_trace(warm)
        assert c.writes[OpKind.AGING] == before


class TestStyleValidation:
    def test_bad_style_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(aging_style="bogus").validate()

    def test_aligned_still_exact(self):
        svc, ftl, sim = aged_sim("ftl", "aligned", used=0.4, valid=0.25)
        valid_frac = svc.array.total_valid_pages / svc.geom.num_pages
        assert valid_frac == pytest.approx(0.25, abs=0.03)
