"""Trace shrinking & counterexample persistence (repro.check.shrink)."""

import numpy as np
import pytest

from repro.check import (
    dump_counterexample,
    load_counterexample,
    replay_counterexample,
    shrink_trace,
)
from repro.check.differential import ReplayFailure, checked_sim_cfg
from repro.check.shrink import (
    FORMAT_VERSION,
    cfg_from_dict,
    sim_cfg_from_dict,
    trace_subset,
)
from repro.config import SimConfig, SSDConfig
from repro.traces.model import OP_READ, OP_WRITE, Trace


def make_trace(n=50):
    return Trace(
        "shrinkme",
        np.arange(n, dtype=np.float64),
        np.full(n, OP_WRITE, dtype=np.uint8),
        (np.arange(n, dtype=np.int64) * 16),
        np.full(n, 16, dtype=np.int64),
    )


class TestTraceSubset:
    def test_keeps_selected_rows(self):
        t = make_trace(10)
        sub = trace_subset(t, [0, 3, 7])
        assert len(sub) == 3
        assert sub.offsets.tolist() == [0, 48, 112]
        assert sub.times.tolist() == [0.0, 3.0, 7.0]
        assert sub.name == t.name


class TestShrinkTrace:
    def test_shrinks_to_single_culprit(self):
        t = make_trace(50)
        culprit = 160  # offset of request #10

        def fails(candidate):
            return bool((candidate.offsets == culprit).any())

        shrunk = shrink_trace(t, fails)
        assert len(shrunk) == 1
        assert shrunk.offsets[0] == culprit

    def test_shrinks_interacting_pair(self):
        t = make_trace(60)

        def fails(candidate):
            offs = set(candidate.offsets.tolist())
            return 32 in offs and 640 in offs

        shrunk = shrink_trace(t, fails)
        assert fails(shrunk)
        assert len(shrunk) <= 4

    def test_budget_bounds_probes(self):
        t = make_trace(200)
        calls = 0

        def fails(candidate):
            nonlocal calls
            calls += 1
            return bool((candidate.offsets == 16).any())

        shrink_trace(t, fails, max_probes=10)
        assert calls <= 10

    def test_single_request_trace_untouched(self):
        t = make_trace(1)
        assert shrink_trace(t, lambda c: True) is t

    def test_never_failing_returns_full_trace(self):
        t = make_trace(20)
        shrunk = shrink_trace(t, lambda c: False)
        assert len(shrunk) == 20


class TestConfigRoundTrip:
    def test_ssd_config(self):
        import dataclasses

        cfg = SSDConfig.tiny().replace(write_buffer_bytes=1 << 20)
        back = cfg_from_dict(dataclasses.asdict(cfg))
        assert back == cfg

    def test_sim_config(self):
        import dataclasses

        cfg = checked_sim_cfg(SimConfig(seed=7, aged_used=0.5,
                                        aged_valid=0.2), every=32)
        back = sim_cfg_from_dict(dataclasses.asdict(cfg))
        assert back == cfg
        assert back.check.enabled and back.check.every == 32

    def test_sim_config_without_check_block(self):
        import dataclasses

        doc = dataclasses.asdict(SimConfig())
        doc.pop("check")  # older dump pre-dating CheckConfig
        back = sim_cfg_from_dict(doc)
        assert not back.check.enabled

    def test_sim_config_with_retired_batch_keys(self):
        """Reproducers dumped while ``BatchConfig`` still had
        ``max_batch``/``aging`` must keep loading."""
        import dataclasses

        doc = dataclasses.asdict(SimConfig(seed=3))
        doc["batch"] = {"enabled": True, "max_batch": 64, "aging": False}
        back = sim_cfg_from_dict(doc)
        assert back == SimConfig(seed=3).replace_batch(enabled=True)

    @pytest.mark.parametrize(
        "block, key",
        [(None, "gc_window"), (None, "hot_cold_separation"),
         ("timing", "map_lookup_ms")],
    )
    def test_ssd_config_with_a_removed_key_names_it(self, block, key):
        """A dump from before a setting was removed fails to load, and
        the error names the key (no shim silently drops it)."""
        import dataclasses

        doc = dataclasses.asdict(SSDConfig.tiny())
        (doc if block is None else doc[block])[key] = 0
        with pytest.raises(TypeError, match=key):
            cfg_from_dict(doc)

    @pytest.mark.parametrize(
        "block, key",
        [("frontend", "per_chip_depth"), ("faults", "halt_on_uncorrectable")],
    )
    def test_sim_config_with_a_removed_key_names_it(self, block, key):
        import dataclasses

        doc = dataclasses.asdict(SimConfig())
        doc[block][key] = 1
        with pytest.raises(TypeError, match=key):
            sim_cfg_from_dict(doc)


class TestCounterexampleFiles:
    def test_round_trip(self, tmp_path):
        trace = make_trace(7)
        trace.ops[3] = OP_READ
        cfg = SSDConfig.tiny()
        sim_cfg = checked_sim_cfg(every=64)
        path = dump_counterexample(
            tmp_path / "ce.json",
            trace=trace,
            cfg=cfg,
            sim_cfg=sim_cfg,
            failures=[ReplayFailure("oracle", "ftl", "boom")],
            schemes=("ftl", "across"),
            seed=123,
        )
        t2, cfg2, sim2, doc = load_counterexample(path)
        assert cfg2 == cfg and sim2 == sim_cfg
        assert np.array_equal(t2.ops, trace.ops)
        assert np.array_equal(t2.offsets, trace.offsets)
        assert np.array_equal(t2.sizes, trace.sizes)
        assert np.array_equal(t2.times, trace.times)
        assert doc["seed"] == 123
        assert doc["schemes"] == ["ftl", "across"]
        assert doc["failures"][0]["kind"] == "oracle"
        assert str(path) in doc["repro_command"]

    def test_version_check(self, tmp_path):
        import json

        trace = make_trace(2)
        path = dump_counterexample(
            tmp_path / "ce.json",
            trace=trace,
            cfg=SSDConfig.tiny(),
            sim_cfg=SimConfig(),
            failures=[],
        )
        doc = json.loads(path.read_text())
        assert doc["version"] == FORMAT_VERSION
        doc["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported"):
            load_counterexample(path)

    def test_replay_healthy_dump_passes(self, tmp_path):
        # a "counterexample" whose trace is actually fine replays clean
        trace = make_trace(30)
        path = dump_counterexample(
            tmp_path / "ok.json",
            trace=trace,
            cfg=SSDConfig.tiny(),
            sim_cfg=SimConfig(),
            failures=[ReplayFailure("error", None, "was flaky")],
            schemes=("ftl", "mrsm"),
        )
        res = replay_counterexample(path)
        assert res.ok, res.summary()
        assert set(res.read_digests) == {"ftl", "mrsm"}
