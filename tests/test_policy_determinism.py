"""Policy determinism: pooled == in-process per policy, and the policies
are really plugged in.  That the greedy default reproduces the pinned
scenario reports bit for bit is ``tests/test_golden_hotpath.py``'s job."""

import pytest

from repro.config import GC_POLICIES, FaultConfig, SimConfig
from repro.experiments.benchgate import report_digest
from repro.experiments.parallel import RunSpec, execute_runs
from repro.experiments.runner import run_trace


@pytest.fixture
def faulty_sim() -> SimConfig:
    return SimConfig(
        aged_used=0.90,
        aged_valid=0.398,
        seed=5,
        faults=FaultConfig.stress(seed=7),
    )


class TestJobsDeterminism:
    @pytest.mark.parametrize("policy", GC_POLICIES)
    def test_jobs1_vs_jobs4_bit_identical(
        self, policy, tiny_cfg, small_trace, faulty_sim
    ):
        cfg = tiny_cfg.replace(gc_policy=policy)
        serial = run_trace("across", small_trace, cfg, faulty_sim)
        spec = RunSpec.make("across", small_trace, cfg, faulty_sim)
        pooled = execute_runs([spec], jobs=4).reports[0]
        assert report_digest(serial) == report_digest(pooled)

    def test_policies_produce_distinct_behaviour(
        self, tiny_cfg, small_trace, faulty_sim
    ):
        """Sanity that the zoo is actually plugged in: the preemptive
        policy must diverge from greedy in its flash-op pattern (if it
        didn't, the digest equality above would be vacuous)."""
        greedy = run_trace(
            "across", small_trace,
            tiny_cfg.replace(gc_policy="greedy"), faulty_sim,
        )
        preempt = run_trace(
            "across", small_trace,
            tiny_cfg.replace(gc_policy="preemptive"), faulty_sim,
        )
        assert report_digest(greedy) != report_digest(preempt)
        assert preempt.counters.gc_slices > 0
