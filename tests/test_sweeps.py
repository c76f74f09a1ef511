"""Parameter-sweep utilities (repro.experiments.sweeps)."""

import pytest

from repro.config import SSDConfig
from repro.experiments.sweeps import sweep_config, sweep_sim, sweep_workload
from repro.traces.synthetic import SyntheticSpec, generate_trace


@pytest.fixture(scope="module")
def setting():
    cfg = SSDConfig.tiny()
    spec = SyntheticSpec(
        "sweep",
        800,
        0.6,
        0.25,
        9.0,
        footprint_sectors=int(cfg.logical_sectors * 0.6),
        seed=5,
    )
    return cfg, spec, generate_trace(spec)


class TestSweepConfig:
    def test_gc_policy_sweep(self, setting):
        cfg, _, trace = setting
        res = sweep_config(
            "gc_policy", ["greedy", "preemptive"], trace, cfg,
            metric="erase_count", schemes=("ftl",),
        )
        assert set(res.values) == {"greedy", "preemptive"}
        assert all("ftl" in v for v in res.values.values())
        assert "sweep of gc_policy" in res.rendered()

    def test_series_extraction(self, setting):
        cfg, _, trace = setting
        res = sweep_config(
            "write_buffer_bytes", [0, 1024 * 1024], trace, cfg,
            metric="flash_reads", schemes=("ftl",),
        )
        series = res.scheme_series("ftl")
        assert len(series) == 2
        # a data cache can only reduce flash reads
        assert series[1] <= series[0]

    def test_custom_metric_fn(self, setting):
        cfg, _, trace = setting
        res = sweep_config(
            "op_ratio", [0.125, 0.25], trace, cfg,
            metric=lambda rep: float(rep.counters.total_writes),
            schemes=("across",),
        )
        assert all(v["across"] > 0 for v in res.values.values())


class TestSweepSim:
    def test_queue_depth_sweep(self, setting):
        cfg, _, trace = setting
        res = sweep_sim(
            "queue_depth", [1, None], trace, cfg,
            metric="total_io_ms", schemes=("ftl",),
        )
        # deeper queue (unlimited) can only lower total latency
        assert res.values["None"]["ftl"] <= res.values["1"]["ftl"]


class TestSweepWorkload:
    def test_across_ratio_sweep(self, setting):
        cfg, spec, _ = setting
        res = sweep_workload(
            "across_ratio", [0.0, 0.3], spec, cfg,
            metric="flash_writes", schemes=("ftl", "across"),
        )
        zero = res.values["0.0"]
        hi = res.values["0.3"]
        # with no across requests the schemes behave alike; at 30% the
        # baseline pays the two-programs penalty
        assert abs(zero["across"] - zero["ftl"]) / zero["ftl"] < 0.05
        assert hi["across"] < hi["ftl"]

    def test_invalid_point_rejected(self, setting):
        cfg, spec, _ = setting
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            sweep_workload("across_ratio", [1.5], spec, cfg)
