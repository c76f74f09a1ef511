"""Experiment runner and context memoisation."""

import pytest

from repro.config import SimConfig, SSDConfig
from repro.experiments.runner import ExperimentContext, compare_schemes, run_trace
from repro.experiments.workloads import TABLE2_SPECS, lun_specs, lun_traces


@pytest.fixture(scope="module")
def micro_ctx():
    """A very small context so figure sweeps run in seconds."""
    cfg = SSDConfig(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=32,
        pages_per_block=16,
        page_size_bytes=8 * 1024,
        write_buffer_bytes=512 * 1024,
    )
    return ExperimentContext(
        cfg=cfg,
        sim_cfg=SimConfig(aged_used=0.6, aged_valid=0.3),
        scale=0.002,
    )


class TestRunTrace:
    def test_fresh_device_per_run(self, small_trace, tiny_cfg):
        a = run_trace("ftl", small_trace, tiny_cfg)
        b = run_trace("ftl", small_trace, tiny_cfg)
        assert a.counters.total_writes == b.counters.total_writes
        assert a.erase_count == b.erase_count

    def test_unknown_scheme(self, small_trace, tiny_cfg):
        with pytest.raises(ValueError):
            run_trace("bogus", small_trace, tiny_cfg)

    def test_compare_schemes(self, small_trace, tiny_cfg):
        reps = compare_schemes(small_trace, tiny_cfg)
        assert set(reps) == {"ftl", "mrsm", "across"}
        for s, r in reps.items():
            assert r.scheme == s
            assert r.requests == len(small_trace)


class TestWorkloads:
    def test_table2_rows(self):
        assert len(TABLE2_SPECS) == 6
        assert TABLE2_SPECS[0].name == "lun1"
        assert TABLE2_SPECS[5].across_ratio == pytest.approx(0.275)

    def test_lun_specs_scaled(self, tiny_cfg):
        specs = lun_specs(tiny_cfg, scale=0.01)
        assert len(specs) == 6
        assert specs[0].requests == int(749_806 * 0.01)
        assert specs[0].footprint_sectors <= tiny_cfg.logical_sectors

    def test_lun_traces_generate(self, tiny_cfg):
        traces = lun_traces(tiny_cfg, scale=0.001)
        assert len(traces) == 6
        assert all(len(t) > 0 for t in traces)
        assert {t.name for t in traces} == {f"lun{i}" for i in range(1, 7)}


class TestContext:
    def test_memoisation(self, micro_ctx):
        a = micro_ctx.run("lun1", "ftl")
        b = micro_ctx.run("lun1", "ftl")
        assert a is b  # cached, not re-simulated

    def test_distinct_schemes_distinct_runs(self, micro_ctx):
        a = micro_ctx.run("lun1", "ftl")
        b = micro_ctx.run("lun1", "across")
        assert a is not b

    def test_page_size_key(self, micro_ctx):
        a = micro_ctx.run("lun1", "ftl")
        b = micro_ctx.run("lun1", "ftl", page_size_bytes=4 * 1024)
        assert a is not b

    def test_trace_cached(self, micro_ctx):
        t1 = micro_ctx.lun_trace("lun2")
        t2 = micro_ctx.lun_trace("lun2")
        assert t1 is t2

    def test_unknown_lun(self, micro_ctx):
        with pytest.raises(KeyError):
            micro_ctx.lun_trace("lun9")

    def test_config_for_page(self, micro_ctx):
        cfg = micro_ctx.config_for_page(4 * 1024)
        assert cfg.page_size_bytes == 4 * 1024
        assert micro_ctx.config_for_page(8 * 1024) is micro_ctx.cfg

    def test_sweep_covers_all_luns_and_schemes(self, micro_ctx):
        out = micro_ctx.sweep(schemes=("ftl", "across"))
        assert set(out) == {f"lun{i}" for i in range(1, 7)}
        for name, per_scheme in out.items():
            assert set(per_scheme) == {"ftl", "across"}
            for rep in per_scheme.values():
                assert rep.requests == len(micro_ctx.lun_trace(name))
