"""Fault injection and reliability (repro.faults): model, determinism,
bad-block retirement with data intact, and report round-trips."""

import pytest

from repro.config import FaultConfig, SCHEMES, SimConfig, SSDConfig
from repro.core.across import AcrossFTL
from repro.errors import ConfigError
from repro.experiments.parallel import ResultStore, RunSpec, execute_runs
from repro.experiments.runner import run_trace
from repro.faults import FaultInjector, raw_bit_error_rate, read_retry_steps
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.ftl.meta import KIND_DATA
from repro.metrics.report import SimulationReport
from repro.traces.synthetic import SyntheticSpec, generate_trace


def _comparable(report: SimulationReport) -> dict:
    """to_dict minus wall_seconds (the only run-to-run nondeterminism)."""
    d = report.to_dict()
    d.pop("wall_seconds")
    return d


@pytest.fixture(scope="module")
def fault_setup():
    cfg = SSDConfig.tiny()
    spec = SyntheticSpec(
        "faulty",
        1_200,
        0.65,
        0.25,
        9.0,
        footprint_sectors=cfg.logical_sectors // 2,
        seed=5,
    )
    trace = generate_trace(spec)
    sim_cfg = SimConfig(
        aged_used=0.8, aged_valid=0.35, faults=FaultConfig.stress()
    )
    return cfg, trace, sim_cfg


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
class TestModel:
    def test_rber_grows_with_wear_and_age(self):
        fc = FaultConfig()
        base = raw_bit_error_rate(fc, 0)
        assert base == fc.rber_base
        assert raw_bit_error_rate(fc, 1000) > raw_bit_error_rate(fc, 100)
        assert raw_bit_error_rate(fc, 0, age_ms=1e6) > base
        # negative age is clamped, not amplified
        assert raw_bit_error_rate(fc, 0, age_ms=-5.0) == base

    def test_retry_steps_boundaries(self):
        fc = FaultConfig(ecc_bits=64, retry_error_factor=0.5,
                         max_read_retries=5)
        assert read_retry_steps(fc, 0) == (0, False)
        assert read_retry_steps(fc, 64) == (0, False)
        assert read_retry_steps(fc, 65) == (1, False)
        steps, unc = read_retry_steps(fc, 10**9)
        assert steps == 5 and unc

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig(rber_base=-1.0).validate()
        with pytest.raises(ConfigError):
            FaultConfig(program_fail_prob=1.5).validate()
        with pytest.raises(ConfigError):
            FaultConfig(retire_after_program_fails=0).validate()

    def test_scaled_intensity(self):
        base = FaultConfig.stress()
        off = base.scaled(0)
        assert not off.enabled
        hot = base.scaled(3.0)
        assert hot.enabled
        assert hot.rber_base == pytest.approx(base.rber_base * 3)
        assert hot.erase_fail_prob <= 1.0
        with pytest.raises(ConfigError):
            base.scaled(-1)

    def test_injector_determinism(self, tiny_cfg):
        fc = FaultConfig.stress()
        seq = []
        for _ in range(2):
            array = FlashService(tiny_cfg).array
            inj = FaultInjector(tiny_cfg, fc, array)
            seq.append([
                inj.read_outcome(p, 1.0 + p) for p in range(40)
            ] + [inj.program_attempts(p) for p in range(40)]
              + [inj.erase_fails(b) for b in range(10)])
        assert seq[0] == seq[1]


# ----------------------------------------------------------------------
# injection through the service
# ----------------------------------------------------------------------
class TestServiceInjection:
    def _service(self, cfg, fcfg):
        svc = FlashService(cfg)
        svc.faults = FaultInjector(cfg, fcfg, svc.array)
        return svc

    def test_read_retry_costs_chip_time(self, tiny_cfg):
        # rber so high every read walks retry steps
        fcfg = FaultConfig(enabled=True, rber_base=5e-3, ecc_bits=8)
        svc = self._service(tiny_cfg, fcfg)
        svc.program_page(0, (KIND_DATA, 0, 0, 0), 0.0, timed=False)
        finish = svc.read_page(0, 0.0)
        assert finish > tiny_cfg.timing.read_ms
        assert svc.counters.read_retries > 0

    def test_uncorrectable_counted_not_raised_by_default(self, tiny_cfg):
        fcfg = FaultConfig(
            enabled=True, rber_base=0.5, ecc_bits=4, max_read_retries=1
        )
        svc = self._service(tiny_cfg, fcfg)
        svc.program_page(0, (KIND_DATA, 0, 0, 0), 0.0, timed=False)
        svc.read_page(0, 0.0)
        assert svc.counters.uncorrectable_reads == 1

    def test_program_failures_queue_retirement(self, tiny_cfg):
        fcfg = FaultConfig(
            enabled=True, program_fail_prob=1.0,
            max_program_retries=2, retire_after_program_fails=3,
        )
        svc = self._service(tiny_cfg, fcfg)
        finish = svc.program_page(0, (KIND_DATA, 0, 0, 0), 0.0)
        # every attempt failed: base program + 2 reprogram pulses
        assert finish == pytest.approx(3 * tiny_cfg.timing.program_ms)
        assert svc.counters.program_fails == 3
        assert 0 in svc.retire_pending

    def test_erase_failure_retires_block(self, tiny_cfg):
        fcfg = FaultConfig(enabled=True, erase_fail_prob=1.0)
        svc = self._service(tiny_cfg, fcfg)
        ppb = tiny_cfg.pages_per_block
        for p in range(ppb):
            svc.program_page(p, (KIND_DATA, p, 0, 0), 0.0, timed=False)
            svc.invalidate(p)
        free_before = svc.array.total_free_blocks()
        svc.erase_block(0, 0.0)
        assert svc.array.is_bad[0]
        assert svc.counters.erase_fails == 1
        assert svc.counters.bad_blocks == 1
        assert svc.counters.erases == 0  # the erase never completed
        # the block is gone for good: OP shrank by one block
        assert svc.array.total_free_blocks() == free_before - 1
        svc.array.check_invariants()

    def test_untimed_ops_never_draw(self, tiny_cfg):
        fcfg = FaultConfig(enabled=True, rber_base=0.5, erase_fail_prob=1.0)
        svc = self._service(tiny_cfg, fcfg)
        ppb = tiny_cfg.pages_per_block
        for p in range(ppb):
            svc.program_page(p, (KIND_DATA, p, 0, 0), 0.0, timed=False)
        svc.read_page(0, 0.0, timed=False)
        for p in range(ppb):
            svc.invalidate(p)
        svc.erase_block(0, 0.0, aging=True)
        assert svc.faults.draws == 0
        assert svc.counters.read_retries == 0
        assert svc.counters.erase_fails == 0


# ----------------------------------------------------------------------
# bad-block retirement through GC, data intact
# ----------------------------------------------------------------------
class TestRetirementDrain:
    def test_across_area_relocated_intact(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = AcrossFTL(svc, track_payload=True)
        spp = ftl.spp
        ftl.write(2056, 12, 0.0, 909)
        entry = next(ftl.amt.entries())
        area_ppn = entry.appn
        block = area_ppn // micro_cfg.pages_per_block
        # seal the block so the drain may retire it
        geom = svc.geom
        plane = geom.plane_of_block(block)
        guard = 0
        while (
            svc.array.write_ptr[block] < micro_cfg.pages_per_block
            or ftl.allocator.active_in_plane(plane) == block
        ):
            lpn = 40 + guard
            ftl.write(lpn * spp, spp, 0.0, guard)
            guard += 1
            assert guard < 10_000
        # mark it failing, as crossing the program-fail threshold would
        svc.retire_pending.add(block)
        ftl.gc.maybe_collect(ftl, plane, 1.0)
        assert svc.array.is_bad[block]
        assert svc.counters.bad_blocks == 1
        assert svc.counters.fault_relocations > 0
        # the across area moved and kept every sector
        assert entry.appn != area_ppn
        _, found = ftl.read(2056, 12, 1.0)
        assert all(found[s] == 909 for s in range(2056, 2068))
        ftl.check_invariants()
        svc.array.check_invariants()

    def test_active_block_deferred(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = make_ftl("ftl", svc)
        spp = ftl.spp
        ftl.write(0, spp, 0.0)
        block = int(ftl.pmt[0]) // micro_cfg.pages_per_block
        assert svc.array.write_ptr[block] < micro_cfg.pages_per_block
        svc.retire_pending.add(block)
        plane = svc.geom.plane_of_block(block)
        ftl.gc.maybe_collect(ftl, plane, 0.0)
        # unfull frontier block: retirement waits until it seals
        assert not svc.array.is_bad[block]
        assert block in svc.retire_pending


# ----------------------------------------------------------------------
# whole-run behaviour
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_disabled_is_default_identical(self, fault_setup):
        cfg, trace, _ = fault_setup
        a = run_trace("across", trace, cfg, SimConfig())
        b = run_trace("across", trace, cfg,
                      SimConfig(faults=FaultConfig(enabled=False)))
        assert _comparable(a) == _comparable(b)
        assert a.counters.read_retries == 0
        assert a.counters.bad_blocks == 0

    def test_enabled_run_is_deterministic_and_nonzero(self, fault_setup):
        cfg, trace, sim_cfg = fault_setup
        a = run_trace("across", trace, cfg, sim_cfg)
        b = run_trace("across", trace, cfg, sim_cfg)
        assert _comparable(a) == _comparable(b)
        assert a.counters.read_retries > 0
        assert a.extra["fault_draws"] > 0

    def test_jobs_fanout_bit_identical(self, fault_setup):
        cfg, trace, sim_cfg = fault_setup
        specs = [RunSpec.make(s, trace, cfg, sim_cfg) for s in SCHEMES]
        serial = execute_runs(specs, jobs=1)
        fanned = execute_runs(specs, jobs=4)
        for r1, r4 in zip(serial.reports, fanned.reports):
            assert _comparable(r1) == _comparable(r4)

    def test_store_roundtrip_keeps_fault_counters(self, fault_setup, tmp_path):
        cfg, trace, sim_cfg = fault_setup
        store = ResultStore(tmp_path)
        spec = RunSpec.make("across", trace, cfg, sim_cfg)
        first = execute_runs([spec], store=store).reports[0]
        assert first.counters.read_retries > 0
        cached = execute_runs([spec], store=store).reports[0]
        assert _comparable(first) == _comparable(cached)
        # and the faults block differentiates store entries
        other = RunSpec.make(
            "across", trace, cfg, SimConfig(aged_used=0.8, aged_valid=0.35)
        )
        fresh = execute_runs([other], store=store).reports[0]
        assert fresh.counters.read_retries == 0

    def test_report_json_roundtrip(self, fault_setup):
        cfg, trace, sim_cfg = fault_setup
        rep = run_trace("across", trace, cfg, sim_cfg)
        back = SimulationReport.from_json(rep.to_json())
        assert back.counters.read_retries == rep.counters.read_retries
        assert back.counters.bad_blocks == rep.counters.bad_blocks
        assert back.counters.fault_relocations == rep.counters.fault_relocations
        assert _comparable(back) == _comparable(rep)

    def test_oracle_verifies_under_heavy_faults(self, fault_setup):
        cfg, trace, sim_cfg = fault_setup
        from dataclasses import replace

        fc = replace(
            FaultConfig.stress(), erase_fail_prob=0.3, program_fail_prob=2e-2
        )
        checked = replace(sim_cfg, check_oracle=True, faults=fc)
        rep = run_trace("across", trace, cfg, checked)
        assert rep.extra["oracle_reads_verified"] > 0
        assert rep.counters.bad_blocks > 0

    def test_metric_names_resolve(self, fault_setup):
        cfg, trace, sim_cfg = fault_setup
        rep = run_trace("ftl", trace, cfg, sim_cfg)
        for name in (
            "read_retries", "uncorrectable_reads", "program_fails",
            "erase_fails", "bad_blocks", "fault_relocations",
        ):
            assert rep.metric(name) >= 0.0
