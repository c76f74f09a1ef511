"""Differential replay harness (repro.check.differential)."""

import dataclasses

import pytest

from repro.check import (
    DifferentialResult,
    ReplayFailure,
    checked_sim_cfg,
    differential_replay,
)
from repro.config import SCHEMES, SimConfig, SSDConfig
from repro.sim.oracle import OracleMismatch
from repro.traces.synthetic import SyntheticSpec, generate_trace
from repro.units import MIB


@pytest.fixture(scope="module")
def diff_cfg() -> SSDConfig:
    return SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)


@pytest.fixture(scope="module")
def diff_trace(diff_cfg):
    spec = SyntheticSpec(
        "diff",
        400,
        0.6,
        0.25,
        9.0,
        footprint_sectors=int(diff_cfg.logical_sectors * 0.7),
        seed=17,
    )
    return generate_trace(spec)


class TestCheckedSimCfg:
    def test_defaults(self):
        cfg = checked_sim_cfg()
        assert cfg.check_oracle and not cfg.progress
        assert cfg.check.enabled and cfg.check.every == 256
        cfg.validate()

    def test_preserves_base_fields(self):
        base = SimConfig(seed=99, aged_used=0.5, aged_valid=0.3)
        cfg = checked_sim_cfg(base, every=64)
        assert cfg.seed == 99 and cfg.aged_used == 0.5
        assert cfg.check.every == 64


class TestDifferentialReplay:
    def test_schemes_agree(self, diff_trace, diff_cfg):
        res = differential_replay(
            diff_trace, diff_cfg, SimConfig(), every=100
        )
        assert res.ok, res.summary()
        assert set(res.read_digests) == set(SCHEMES)
        assert len(set(res.read_digests.values())) == 1
        assert "3 schemes agree" in res.summary()
        for rep in res.reports.values():
            assert rep.extra["check_sweeps"] >= 4

    def test_scheme_subset(self, diff_trace, diff_cfg):
        res = differential_replay(
            diff_trace,
            diff_cfg,
            schemes=("ftl", "across"),
            every=200,
            compare_cache=False,
        )
        assert res.ok
        assert set(res.read_digests) == {"ftl", "across"}

    def test_jobs_leg_agrees(self, diff_trace, diff_cfg):
        res = differential_replay(
            diff_trace,
            diff_cfg,
            schemes=("ftl",),
            every=200,
            compare_cache=False,
            compare_jobs=True,
        )
        assert res.ok, res.summary()


class TestFailurePaths:
    def test_oracle_mismatch_reported(self, diff_trace, diff_cfg, monkeypatch):
        import repro.experiments.runner as runner

        real = runner.run_trace

        def broken(scheme, trace, cfg, sim_cfg=None, **kw):
            if scheme == "mrsm":
                raise OracleMismatch("sector 5: expected 1, got 2")
            return real(scheme, trace, cfg, sim_cfg, **kw)

        monkeypatch.setattr(runner, "run_trace", broken)
        res = differential_replay(
            diff_trace, diff_cfg, every=200, compare_cache=False
        )
        assert not res.ok
        kinds = {(f.kind, f.scheme) for f in res.failures}
        assert ("oracle", "mrsm") in kinds
        # the healthy schemes still ran and agreed with each other
        assert set(res.read_digests) == {"ftl", "across"}
        assert len(set(res.read_digests.values())) == 1
        assert "oracle [mrsm]" in res.summary()

    def test_invariant_violation_reported(
        self, diff_trace, diff_cfg, monkeypatch
    ):
        from repro.errors import InvariantViolation

        import repro.experiments.runner as runner

        def broken(scheme, trace, cfg, sim_cfg=None, **kw):
            raise InvariantViolation("program conservation: off by one")

        monkeypatch.setattr(runner, "run_trace", broken)
        res = differential_replay(
            diff_trace, diff_cfg, schemes=("ftl",), compare_cache=False
        )
        assert [f.kind for f in res.failures] == ["invariant"]
        assert "InvariantViolation" in res.failures[0].detail

    def test_scheme_divergence_detected(
        self, diff_trace, diff_cfg, monkeypatch
    ):
        import repro.experiments.runner as runner

        real = runner.run_trace

        def skewed(scheme, trace, cfg, sim_cfg=None, **kw):
            rep = real(scheme, trace, cfg, sim_cfg, **kw)
            if scheme == "across":
                rep.extra["check_read_digest"] = "f" * 64
            return rep

        monkeypatch.setattr(runner, "run_trace", skewed)
        res = differential_replay(
            diff_trace, diff_cfg, every=200, compare_cache=False
        )
        kinds = [f.kind for f in res.failures]
        assert "scheme-divergence" in kinds

    def test_cache_divergence_detected(self, diff_trace, diff_cfg, monkeypatch):
        import repro.experiments.runner as runner

        real = runner.run_trace

        def skewed(scheme, trace, cfg, sim_cfg=None, **kw):
            rep = real(scheme, trace, cfg, sim_cfg, **kw)
            if cfg.write_buffer_bytes == 0:
                rep.extra["check_read_digest"] = "0" * 64
            return rep

        monkeypatch.setattr(runner, "run_trace", skewed)
        res = differential_replay(
            diff_trace, diff_cfg, schemes=("ftl",), every=200
        )
        kinds = [f.kind for f in res.failures]
        assert kinds == ["cache-divergence"]
        assert res.failures[0].scheme == "ftl"


class TestImageLeg:
    AGED = SimConfig(aged_used=0.9, aged_valid=0.398, aging_style="vdi")

    def test_agrees_over_policies_and_loops(self, diff_trace, diff_cfg):
        res = differential_replay(
            diff_trace, diff_cfg, self.AGED, every=200, compare_cache=False,
            frontend=True, policies=("preemptive",),
        )
        assert res.ok, res.summary()
        assert res.legs == ["frontend", "gc=preemptive", "image"]

    def test_a_field_load_state_drops_is_named(
        self, diff_trace, diff_cfg, monkeypatch
    ):
        from repro.ftl.gc import GarbageCollector

        monkeypatch.setattr(GarbageCollector, "load_state", lambda self, s: None)
        res = differential_replay(
            diff_trace, diff_cfg, self.AGED, schemes=("across",),
            every=200, compare_cache=False,
        )
        assert [f.kind for f in res.failures] == ["image-divergence"]
        assert res.failures[0].scheme == "across"
        assert "gc.tallies" in res.failures[0].detail

    def test_a_restore_that_replays_differently_is_caught(
        self, diff_trace, diff_cfg, monkeypatch
    ):
        """State the seam does not see (here: a chip left busy by the
        restore) shows up as a digest difference."""
        from repro.flash.timing import ChipTimeline

        real = ChipTimeline.load_state

        def late(self, s):
            real(self, s)
            self._busy_until[0] += 5.0
            self.state = lambda: s  # hide it from the state comparison

        monkeypatch.setattr(ChipTimeline, "load_state", late)
        res = differential_replay(
            diff_trace, diff_cfg, self.AGED, schemes=("ftl",),
            every=200, compare_cache=False,
        )
        assert [f.kind for f in res.failures] == ["image-divergence"]
        assert "report digest differs" in res.failures[0].detail

    def test_nothing_to_compare_on_a_fresh_device(
        self, diff_trace, diff_cfg, monkeypatch
    ):
        from repro.sim.image import DeviceImage

        def boom(*a, **kw):
            raise AssertionError("image leg ran without aging")

        monkeypatch.setattr(DeviceImage, "capture", boom)
        res = differential_replay(
            diff_trace, diff_cfg, SimConfig(), schemes=("ftl",),
            every=200, compare_cache=False,
        )
        assert res.ok


class TestLegs:
    def test_cli_all_clear_names_the_legs_it_ran(self, capsys):
        """The all-clear line says which comparisons ran: the zoo's
        policy legs and each queue depth, not only the scheme count."""
        from repro.cli import main

        rc = main([
            "check", "--lun", "lun1", "--scale", "0.0005",
            "--aged-used", "0", "--aged-valid", "0", "--scheme", "ftl",
            "--skip-jobs", "--gc-policies", "all", "--frontend",
            "--qd-sweep", "1,8",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.strip() == (
            "lun1: ok (1 schemes agree; legs: cache, frontend, qd=1, "
            "qd=8, gc=preemptive)"
        )


class TestResultTypes:
    def test_summary_lists_failures(self):
        res = DifferentialResult(
            trace_name="t",
            failures=[ReplayFailure("oracle", "ftl", "boom")],
        )
        assert not res.ok
        assert "1 failure(s)" in res.summary()
        assert "oracle [ftl]: boom" in res.summary()

    def test_failure_is_serialisable(self):
        f = ReplayFailure("jobs-divergence", None, "digest drift")
        doc = dataclasses.asdict(f)
        assert doc == {
            "kind": "jobs-divergence",
            "scheme": None,
            "detail": "digest drift",
        }
