"""Runtime invariant checker (repro.check.invariants): clean runs pass,
seeded corruption of every checked layer is caught."""

import numpy as np
import pytest

from repro.check.invariants import InvariantChecker
from repro.config import CheckConfig, SCHEMES, SimConfig
from repro.errors import (
    ConfigError,
    FlashProtocolError,
    InvariantViolation,
    MappingError,
)
from repro.experiments.runner import run_trace
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticSpec, generate_trace


def small_trace(cfg, n=600, seed=5):
    spec = SyntheticSpec(
        "chk",
        n,
        0.6,
        0.25,
        9.0,
        footprint_sectors=int(cfg.logical_sectors * 0.7),
        seed=seed,
    )
    return generate_trace(spec)


def checked(every=100):
    return SimConfig(check_oracle=True).replace_check(
        enabled=True, every=every
    )


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------
class TestCheckConfig:
    def test_disabled_by_default(self):
        cfg = SimConfig()
        assert not cfg.check.enabled
        assert cfg.check.every == 0

    def test_negative_cadence_rejected(self):
        with pytest.raises(ConfigError):
            CheckConfig(enabled=True, every=-1).validate()

    def test_cadence_requires_enabled(self):
        with pytest.raises(ConfigError):
            CheckConfig(enabled=False, every=64).validate()
        with pytest.raises(ConfigError):
            SimConfig(check=CheckConfig(every=64)).validate()

    def test_full_and_replace_check(self):
        full = CheckConfig.full(every=32)
        assert full.enabled and full.every == 32
        cfg = SimConfig().replace_check(enabled=True, every=16)
        cfg.validate()
        assert cfg.check.enabled and cfg.check.every == 16

    def test_disabled_run_has_no_checker(self, tiny_cfg):
        svc = FlashService(tiny_cfg)
        sim = Simulator(make_ftl("ftl", svc), SimConfig())
        assert sim.checker is None
        rep = sim.run(small_trace(tiny_cfg, n=50))
        assert "check_sweeps" not in rep.extra
        assert "check_read_digest" not in rep.extra


# ----------------------------------------------------------------------
# clean runs pass under the checker
# ----------------------------------------------------------------------
class TestCleanRuns:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_passes_with_sweeps(self, tiny_cfg, scheme):
        rep = run_trace(scheme, small_trace(tiny_cfg), tiny_cfg, checked())
        # 600 requests / cadence 100 periodic sweeps + the final one
        assert rep.extra["check_sweeps"] >= 6
        assert len(rep.extra["check_read_digest"]) == 64

    def test_end_of_run_only_cadence(self, tiny_cfg):
        cfg = SimConfig(check_oracle=True).replace_check(
            enabled=True, every=0
        )
        rep = run_trace("ftl", small_trace(tiny_cfg, n=80), tiny_cfg, cfg)
        assert rep.extra["check_sweeps"] == 1

    def test_aged_device_passes(self, tiny_cfg):
        cfg = SimConfig(
            check_oracle=True, aged_used=0.6, aged_valid=0.35
        ).replace_check(enabled=True, every=100)
        rep = run_trace("across", small_trace(tiny_cfg), tiny_cfg, cfg)
        assert rep.extra["check_sweeps"] >= 6


# ----------------------------------------------------------------------
# corruption detection, layer by layer
# ----------------------------------------------------------------------
def run_checker(cfg, scheme="ftl", n=300):
    """A finished simulation plus a fresh checker over its state."""
    svc = FlashService(cfg)
    ftl = make_ftl(scheme, svc, track_payload=True)
    sim = Simulator(ftl, checked())
    sim.run(small_trace(cfg, n=n))
    chk = InvariantChecker(ftl)
    chk.check_now()  # baseline: the real state passes
    return svc, ftl, chk


class TestCorruptionDetection:
    def test_counter_conservation(self, tiny_cfg):
        from repro.metrics.counters import OpKind

        svc, _ftl, chk = run_checker(tiny_cfg)
        svc.counters.writes[OpKind.DATA] += 1
        with pytest.raises(InvariantViolation, match="program conservation"):
            chk.check_now()

    def test_erase_conservation(self, tiny_cfg):
        svc, _ftl, chk = run_checker(tiny_cfg)
        svc.counters.erases += 2
        with pytest.raises(InvariantViolation, match="erase conservation"):
            chk.check_now()

    def test_free_pool_theft(self, tiny_cfg):
        svc, _ftl, chk = run_checker(tiny_cfg)
        plane = next(
            p for p in range(svc.geom.num_planes) if svc.array._free_blocks[p]
        )
        svc.array._free_blocks[plane].pop()
        with pytest.raises(InvariantViolation, match="absent from its plane"):
            chk.check_now()

    def test_timeline_reversal(self, tiny_cfg):
        svc, _ftl, chk = run_checker(tiny_cfg)
        svc.timeline.busy_until[0] -= 1.0
        with pytest.raises(InvariantViolation, match="moved backwards"):
            chk.check_now()

    def test_unreachable_valid_page(self, tiny_cfg):
        _svc, ftl, chk = run_checker(tiny_cfg)
        lpn = int(np.nonzero(ftl.pmt >= 0)[0][0])
        ftl.pmt[lpn] = -1  # drop the mapping, leave the page valid
        ftl.pmt_mask[lpn] = 0
        with pytest.raises(InvariantViolation, match="unreachable"):
            chk.check_now()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reachability_runs_for_every_scheme(self, tiny_cfg, scheme):
        _svc, ftl, chk = run_checker(tiny_cfg, scheme)
        claims = list(ftl.referenced_ppns())
        ftl.referenced_ppns = lambda: iter(claims[1:])  # one page unclaimed
        with pytest.raises(InvariantViolation, match="unreachable"):
            chk.check_now()

    def test_double_claimed_page(self, tiny_cfg):
        _svc, ftl, chk = run_checker(tiny_cfg)
        mapped = np.nonzero(ftl.pmt >= 0)[0]
        a, b = int(mapped[0]), int(mapped[1])
        ftl.pmt[b] = ftl.pmt[a]  # two LPNs now claim one PPN
        with pytest.raises(MappingError):
            chk.check_now()

    def test_amt_corruption(self, tiny_cfg):
        svc = FlashService(tiny_cfg)
        ftl = make_ftl("across", svc, track_payload=True)
        sim = Simulator(ftl, checked())
        sim.run(small_trace(tiny_cfg, n=300))
        chk = InvariantChecker(ftl)
        chk.check_now()
        entry = next(ftl.amt.entries())
        ftl.amt._free.append(entry.aidx)  # free an index still live
        with pytest.raises(MappingError):
            chk.check_now()

    def test_flash_state_corruption(self, tiny_cfg):
        svc, _ftl, chk = run_checker(tiny_cfg)
        block = int(np.nonzero(svc.array.write_ptr > 1)[0][0])
        svc.array.write_ptr[block] -= 1  # a programmed page now sits
        with pytest.raises(FlashProtocolError):  # past the write pointer
            chk.check_now()


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------
class TestEngineWiring:
    def test_cadence_controls_sweep_count(self, tiny_cfg):
        trace = small_trace(tiny_cfg, n=200)
        svc = FlashService(tiny_cfg)
        sim = Simulator(make_ftl("ftl", svc), checked(every=50))
        rep = sim.run(trace)
        assert rep.extra["check_sweeps"] == 200 // 50 + 1

    def test_digest_deterministic(self, tiny_cfg):
        trace = small_trace(tiny_cfg)
        a = run_trace("ftl", trace, tiny_cfg, checked())
        b = run_trace("ftl", trace, tiny_cfg, checked())
        assert (
            a.extra["check_read_digest"] == b.extra["check_read_digest"]
        )

    def test_digest_depends_on_contents(self, tiny_cfg):
        trace = small_trace(tiny_cfg)
        base = run_trace("ftl", trace, tiny_cfg, checked())
        other = run_trace(
            "ftl", small_trace(tiny_cfg, seed=6), tiny_cfg, checked()
        )
        assert (
            base.extra["check_read_digest"]
            != other.extra["check_read_digest"]
        )

    def test_violation_surfaces_from_run(self, micro_cfg):
        """A checker wired at cadence aborts the run when state is bad."""
        svc = FlashService(micro_cfg)
        ftl = make_ftl("ftl", svc, track_payload=True)
        sim = Simulator(ftl, checked(every=10))
        spp = ftl.spp
        n = 40
        from repro.traces.model import OP_WRITE

        trace = Trace(
            "sabotage",
            np.arange(n, dtype=np.float64),
            np.full(n, OP_WRITE, dtype=np.uint8),
            (np.arange(n, dtype=np.int64) % 16) * spp,
            np.full(n, spp, dtype=np.int64),
        )
        orig = sim.checker.maybe_check

        def sabotage(done):
            from repro.metrics.counters import OpKind

            if done == 20:
                svc.counters.writes[OpKind.DATA] += 1
            orig(done)

        sim.checker.maybe_check = sabotage
        with pytest.raises(InvariantViolation):
            sim.run(trace)
