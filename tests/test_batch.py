"""Read kernels and fused aging: bit-identical to the scalar reference.

The sequential loop absorbs read runs into ``BatchReadKernel`` and ages
the device through the schemes' fused ``write_run`` kernels — always;
no option selects them.  These tests hold the full canonical report
(``benchgate.report_digest``) and the oracle read digest equal to the
scalar reference (the ``scalar_reference`` fixture switches every
kernel off) on all three schemes, on aged devices and with the oracle
on; plus the behavioural contracts around the kernel (MIN_READ_RUN
engagement, request-granular progress, segment-size independence) and
the inert ``BatchConfig`` leftover.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.config import BatchConfig, SimConfig, SSDConfig
from repro.experiments.benchgate import report_digest
from repro.experiments.parallel import run_key
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.traces.model import OP_READ, OP_WRITE, Trace
from repro.traces.synthetic import SyntheticSpec, VDIWorkloadGenerator
from repro.units import MIB

SCHEMES = ("ftl", "mrsm", "across")


def mixed_trace(cfg, n=300, seed=3, write_ratio=0.35):
    """A read-leaning synthetic workload (long read runs engage the
    kernel) sized to the given geometry."""
    spec = SyntheticSpec(
        name="batch-eq",
        requests=n,
        write_ratio=write_ratio,
        across_ratio=0.2,
        mean_write_kb=8.0,
        footprint_sectors=int(cfg.logical_sectors * 0.6),
        seed=seed,
        small_unaligned=0.3,
    )
    return VDIWorkloadGenerator(spec).generate()


def run_once(scheme, trace, sim_cfg, cfg):
    sim = Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)
    report = sim.run(trace)
    return sim, report


def flat_trace(rows):
    """Build a trace from explicit ``(op, offset, size)`` rows, 1 ms
    apart."""
    ops = np.array([r[0] for r in rows], np.uint8)
    offsets = np.array([r[1] for r in rows], np.int64)
    sizes = np.array([r[2] for r in rows], np.int64)
    times = np.arange(len(rows), dtype=np.float64)
    return Trace("flat", times, ops, offsets, sizes)


class TestBitIdentical:
    """Normal run first, then the same run under ``scalar_reference``
    (requested late through ``request.getfixturevalue`` so the first
    run still has its kernels)."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_full_report_equal_on_aged_device(self, scheme, request):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        trace = mixed_trace(cfg)
        sim_cfgs = [
            SimConfig(aged_used=0.55, aged_valid=0.30, seed=9, aging_style=st)
            for st in ("aligned", "vdi")
        ]
        fused = []
        for sim_cfg in sim_cfgs:
            sim, report = run_once(scheme, trace, sim_cfg, cfg)
            # the equality is meaningful only if the kernel actually ran
            assert sim._batch_kernel is not None
            assert sim._batch_kernel.requests_vectorised > 0
            fused.append(report_digest(report))
        request.getfixturevalue("scalar_reference")
        for sim_cfg, want in zip(sim_cfgs, fused):
            ref_sim, ref = run_once(scheme, trace, sim_cfg, cfg)
            assert ref_sim._batch_kernel is None
            assert report_digest(ref) == want

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_full_report_equal_with_oracle(self, scheme, request):
        """Oracle on, aged device, invariant checker armed: the read
        kernel folds the same stamps into ``check_read_digest`` as the
        scalar path (aging itself takes the generic loop either way —
        payload tracking is a fused-kernel fallback condition)."""
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        trace = mixed_trace(cfg, seed=5)
        sim_cfg = SimConfig(
            check_oracle=True, aged_used=0.55, aged_valid=0.30, seed=9
        ).replace_check(enabled=True, every=64)
        sim, fused = run_once(scheme, trace, sim_cfg, cfg)
        assert sim._batch_kernel.requests_vectorised > 0
        assert fused.extra["oracle_reads_verified"] > 0
        request.getfixturevalue("scalar_reference")
        _, ref = run_once(scheme, trace, sim_cfg, cfg)
        assert fused.extra["check_read_digest"] == ref.extra["check_read_digest"]
        assert report_digest(fused) == report_digest(ref)

    def test_small_max_batch_still_identical(self, monkeypatch):
        """Segment boundaries are invisible: 5-request segments give
        the 512-request report."""
        cfg = SSDConfig.tiny()
        trace = mixed_trace(cfg, seed=7)
        _, whole = run_once("across", trace, SimConfig(), cfg)
        monkeypatch.setattr(engine, "_SEGMENT_REQUESTS", 5)
        sim, chopped = run_once("across", trace, SimConfig(), cfg)
        assert sim._batch_kernel.requests_vectorised > 0
        assert report_digest(chopped) == report_digest(whole)

    def test_report_shape_unchanged(self, request):
        """Kernel stats live on the simulator, never in the report —
        the report dict feeds pinned digests."""
        cfg = SSDConfig.tiny()
        trace = mixed_trace(cfg, n=120)
        _, fused = run_once("ftl", trace, SimConfig(), cfg)
        request.getfixturevalue("scalar_reference")
        _, ref = run_once("ftl", trace, SimConfig(), cfg)
        assert fused.to_dict().keys() == ref.to_dict().keys()
        assert fused.extra.keys() == ref.extra.keys()


class TestFrontendComposition:
    def test_frontend_batch_with_queue_depth(self):
        """The frozen ``benchmarks/e2e`` driver still sets
        ``batch.enabled`` on its frontend + queue-depth runs: the flag
        must construct and change nothing."""
        cfg = SSDConfig.tiny()
        trace = mixed_trace(cfg, seed=17)
        fe = SimConfig(queue_depth=8).replace_frontend(enabled=True)
        _, plain = run_once("ftl", trace, fe, cfg)
        _, flagged = run_once(
            "ftl", trace, fe.replace_batch(enabled=True), cfg
        )
        assert report_digest(flagged) == report_digest(plain)


class TestMinReadRun:
    def _seeded(self, rows):
        """40 whole-page writes (data + cached translation pages),
        then ``rows``."""
        seed = [(OP_WRITE, lpn * 16, 16) for lpn in range(40)]
        return flat_trace(seed + rows)

    def _vectorised(self, trace):
        cfg = SSDConfig.tiny()  # no write buffer: reads go to flash
        sim, _ = run_once("ftl", trace, SimConfig(), cfg)
        assert sim._batch_kernel is not None
        return sim._batch_kernel.requests_vectorised

    def test_short_runs_stay_scalar(self):
        rows = []
        for i in range(30):
            rows += [(OP_WRITE, (i % 40) * 16, 16),
                     (OP_READ, (i % 40) * 16, 16),
                     (OP_READ, ((i + 1) % 40) * 16, 16)]
        assert self._vectorised(self._seeded(rows)) == 0

    def test_long_runs_are_absorbed(self):
        rows = []
        for i in range(15):
            rows.append((OP_WRITE, (i % 40) * 16, 16))
            rows += [(OP_READ, ((i + j) % 40) * 16, 16) for j in range(6)]
        assert self._vectorised(self._seeded(rows)) >= 6


class TestBatchProgress:
    def test_progress_counts_requests_not_batches(self, monkeypatch, capsys):
        """Regression: with 15 segments of 8 requests, the progress
        line must advance per completed request (up to 120), not per
        segment (at most 15)."""
        monkeypatch.setattr(engine, "_PROGRESS_EVERY_S", 0.0)
        monkeypatch.setattr(engine, "_SEGMENT_REQUESTS", 8)
        cfg = SSDConfig.tiny()
        trace = mixed_trace(cfg, n=120)
        run_once("ftl", trace, SimConfig(progress=True), cfg)
        err = capsys.readouterr().err
        done = [int(m) for m in re.findall(r"(\d+)/120", err)]
        assert done
        assert max(done) == 120                    # final line completes
        assert any(0 < d < 120 for d in done)      # mid-run updates
        assert len({d for d in done}) > 120 // 8   # finer than per-segment


class TestBatchConfig:
    def test_defaults_off(self):
        """One field is left, and it is inert."""
        assert [f.name for f in dataclasses.fields(BatchConfig)] == ["enabled"]
        assert SimConfig().batch.enabled is False

    def test_replace_batch_round_trip(self):
        sc = SimConfig().replace_batch(enabled=True)
        assert sc.batch.enabled
        assert SimConfig().batch.enabled is False  # original untouched
        sc.validate()
        # identical reports must share one ResultStore key
        cfg = SSDConfig.tiny()
        trace = mixed_trace(cfg, n=20)
        assert run_key("ftl", trace, cfg, sc) == run_key(
            "ftl", trace, cfg, SimConfig()
        )
