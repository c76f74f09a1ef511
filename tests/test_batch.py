"""The sequential loop: bit-identical to ``process()`` by hand.

``Simulator.process`` and both replay loops drive one request
lifecycle (arrive, probe, issue, complete), and no option selects
another.  These tests hold the full canonical report
(``benchgate.report_digest``) of the loop equal to ``process()``
driven by hand, on all three schemes; that neither loop goes through
``process`` (and its per-request extent check); plus the contracts
around the loop (request-granular progress, segment-size independence)
and the inert ``BatchConfig`` leftover.  Aging's one write path is
pinned in ``tests/test_aging_writes.py``.
"""

import dataclasses
import heapq
import re

import pytest

from repro.config import BatchConfig, SimConfig, SSDConfig
from repro.experiments.benchgate import report_digest
from repro.experiments.parallel import run_key
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.traces.model import OP_TRIM, Trace
from repro.traces.synthetic import SyntheticSpec, VDIWorkloadGenerator
from repro.units import MIB

SCHEMES = ("ftl", "mrsm", "across")


def mixed_trace(cfg, n=300, seed=3, write_ratio=0.35):
    """A read-leaning synthetic workload sized to the given geometry."""
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


def run_by_hand(scheme, trace, sim_cfg, cfg):
    """``Simulator.run`` with the sequential loop written out: every
    request through ``sim.process`` in trace order, the scalar reader
    instead of columnar segments, the same NCQ slot heap and checker
    cadence."""
    sim = Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)

    def by_hand(trace):
        qd = sim_cfg.queue_depth
        outstanding = []
        last = 0.0
        for i, (op, offset, size, ts) in enumerate(trace, 1):
            start = None
            takes_slot = qd is not None and op != OP_TRIM
            if takes_slot and len(outstanding) >= qd:
                start = max(ts, heapq.heappop(outstanding))
            sim.process(op, offset, size, ts, start)
            if takes_slot:
                heapq.heappush(outstanding, sim._completions[-1])
            if sim.checker is not None:
                sim.checker.maybe_check(i)
            last = ts
        return last

    sim._run_sequential = by_hand
    return sim.run(trace)


class TestBitIdentical:
    @pytest.mark.parametrize("qd", (None, 4))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_loop_is_process_by_hand(self, scheme, qd):
        """The loop *is* the scalar reference: ``run()`` and
        ``process()`` called by hand give one report (aged tiny
        device, data cache on, TRIM rows bypassing the slot heap)."""
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        trace = mixed_trace(cfg)
        ops = trace.ops.copy()
        ops[::17] = OP_TRIM
        trace = Trace(trace.name, trace.times, ops, trace.offsets, trace.sizes)
        sim_cfg = SimConfig(
            aged_used=0.55, aged_valid=0.30, seed=9, queue_depth=qd
        )
        _, looped = run_once(scheme, trace, sim_cfg, cfg)
        assert looped.extra["trim_count"] > 0
        by_hand = run_by_hand(scheme, trace, sim_cfg, cfg)
        assert report_digest(by_hand) == report_digest(looped)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_full_report_equal_with_oracle(self, scheme):
        """Oracle on, aged device, invariant checker armed: the loop
        folds the same stamps into ``check_read_digest``, and sweeps at
        the same cadence, as ``process()`` by hand."""
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        trace = mixed_trace(cfg, seed=5)
        sim_cfg = SimConfig(
            check_oracle=True, aged_used=0.55, aged_valid=0.30, seed=9
        ).replace_check(enabled=True, every=64)
        _, looped = run_once(scheme, trace, sim_cfg, cfg)
        assert looped.extra["oracle_reads_verified"] > 0
        assert looped.extra["check_sweeps"] > 1
        by_hand = run_by_hand(scheme, trace, sim_cfg, cfg)
        assert (
            by_hand.extra["check_read_digest"]
            == looped.extra["check_read_digest"]
        )
        assert report_digest(by_hand) == report_digest(looped)

    def test_small_max_batch_still_identical(self, monkeypatch):
        """Segment boundaries are invisible: 5-request segments give
        the 512-request report."""
        cfg = SSDConfig.tiny()
        trace = mixed_trace(cfg, seed=7)
        _, whole = run_once("across", trace, SimConfig(), cfg)
        monkeypatch.setattr(engine, "_SEGMENT_REQUESTS", 5)
        _, chopped = run_once("across", trace, SimConfig(), cfg)
        assert report_digest(chopped) == report_digest(whole)


class TestLoopsBypassProcess:
    def test_run_does_not_go_through_process(self, monkeypatch):
        """``run()`` checked every extent up front, so neither loop
        calls ``process`` (which checks each one again): with it made
        to raise, both loops still give an unpatched run's report."""
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
        trace = mixed_trace(cfg, seed=11)
        sequential = SimConfig(queue_depth=4)
        frontend = sequential.replace_frontend(enabled=True)
        plain = [
            report_digest(run_once("across", trace, sim_cfg, cfg)[1])
            for sim_cfg in (sequential, frontend)
        ]

        def refuse(self, *args, **kwargs):
            raise AssertionError("run() went through Simulator.process")

        monkeypatch.setattr(Simulator, "process", refuse)
        patched = [
            report_digest(run_once("across", trace, sim_cfg, cfg)[1])
            for sim_cfg in (sequential, frontend)
        ]
        assert patched == plain


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
