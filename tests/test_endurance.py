"""Endurance zoo: policy × fault grid, WAF/wear scoring, CLI wiring."""

import pytest

from repro.config import GC_POLICIES, SimConfig
from repro.experiments.endurance import (
    ROW_HEADERS,
    EnduranceCell,
    endurance_specs,
    run_endurance,
)
from repro.experiments.parallel import ResultStore


@pytest.fixture
def aged_sim() -> SimConfig:
    # aged hard enough that replay runs under live GC pressure
    return SimConfig(aged_used=0.90, aged_valid=0.398, seed=5)


class TestSpecs:
    def test_grid_shape(self, tiny_cfg, small_trace, aged_sim):
        specs = endurance_specs(
            small_trace, tiny_cfg, aged_sim,
            policies=("greedy", "preemptive"), fault_levels=(0.0, 1.0),
        )
        assert len(specs) == 4
        assert {s.cfg.gc_policy for s in specs} == {"greedy", "preemptive"}
        # every cell records wear and carries its own fault block
        assert all(s.sim_cfg.record_wear for s in specs)
        levels = [s.sim_cfg.faults.enabled for s in specs]
        assert levels.count(True) == 2  # the two level-1.0 cells

    def test_unknown_policy_rejected(self, tiny_cfg, small_trace, aged_sim):
        with pytest.raises(ValueError):
            endurance_specs(
                small_trace, tiny_cfg, aged_sim, policies=("bogus",)
            )

    def test_distinct_run_keys(self, tiny_cfg, small_trace, aged_sim):
        specs = endurance_specs(
            small_trace, tiny_cfg, aged_sim,
            policies=GC_POLICIES, fault_levels=(1.0,),
        )
        keys = {s.key() for s in specs}
        assert len(keys) == len(GC_POLICIES)


class TestRun:
    def test_scores_and_extras(self, tiny_cfg, small_trace, aged_sim):
        res = run_endurance(
            small_trace, tiny_cfg, aged_sim,
            scheme="across",
            policies=("greedy", "preemptive"),
            fault_levels=(1.0,),
        )
        assert len(res.cells) == 2
        for cell in res.cells:
            assert isinstance(cell, EnduranceCell)
            # flash always writes at least what the host wrote
            assert cell.waf >= 1.0
            assert cell.total_erases > 0
            assert cell.wear_gini >= 0.0
            assert cell.p99_write_ms > 0.0
            assert "wear_mean" in cell.report.extra
            row = cell.row()
            assert len(row) == len(ROW_HEADERS)
        rows = res.rows()
        assert set(rows) == {"greedy x1", "preemptive x1"}

    def test_store_round_trip(self, tiny_cfg, small_trace, aged_sim,
                              tmp_path):
        store = ResultStore(tmp_path / "store")
        kw = dict(
            scheme="ftl", policies=("greedy",), fault_levels=(0.5,),
        )
        first = run_endurance(
            small_trace, tiny_cfg, aged_sim, store=store, **kw
        )
        again = run_endurance(
            small_trace, tiny_cfg, aged_sim, store=store, **kw
        )
        assert store.hits >= 1
        a, b = first.cells[0], again.cells[0]
        # wear extras survive the JSON round trip through the store
        assert a.report.extra["wear_gini"] == b.report.extra["wear_gini"]
        assert a.waf == b.waf


class TestCli:
    def test_endure_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "endure", "--scale", "0.002",
            "--gc-policies", "greedy,preemptive",
            "--levels", "0", "1",
        ])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "endurance zoo" in out
        assert "greedy x0" in out and "preemptive x1" in out
        # fault-free cells are imaged, fault-injected ones age as ever
        assert "images: 2 built, 0 restored, 2 bypassed" in err

    def test_endure_rejects_unknown_policy(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["endure", "--gc-policies", "bogus", "--scale", "0.002"])
