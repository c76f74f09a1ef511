"""Ablation: GC policy.

DESIGN.md §5 extension — the paper (and SSDsim) use greedy selection;
this sweep runs every registered policy under the same lun1 workload
and checks that Across-FTL's advantage is not an artifact of the
greedy policy.
"""

from repro.ftl.gc import GC_POLICIES
from repro.metrics.report import render_table
from conftest import publish


def test_ablation_gc_policy(ctx, results_dir, benchmark):
    name = ctx.lun_names()[0]

    def run():
        rows = {}
        for policy in GC_POLICIES:
            page = ctx.cfg.page_size_bytes
            key_cfg = ctx.cfg.replace(gc_policy=policy)
            from repro.experiments.runner import run_trace

            trace = ctx.lun_trace(name)
            f = run_trace("ftl", trace, key_cfg, ctx.sim_cfg)
            a = run_trace("across", trace, key_cfg, ctx.sim_cfg)
            rows[policy] = [
                f.erase_count,
                a.erase_count,
                a.erase_count / max(1, f.erase_count),
                a.total_io_ms / max(1e-9, f.total_io_ms),
            ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = render_table(
        f"Ablation — GC policy sweep ({name}); across/ftl ratios",
        ["ftl_erases", "across_erases", "erase_ratio", "io_ratio"],
        rows,
    )
    publish(results_dir, "ablation_gc_policy", rendered)
    for policy, (_, _, erase_ratio, io_ratio) in rows.items():
        # Across-FTL keeps its advantage under every GC policy.  This
        # is a single-trace comparison, so the latency bound is the
        # burst-window noise envelope, not a strict win (the 6-trace
        # geomean in bench_fig09 carries the strict claim).
        assert erase_ratio < 1.05, policy
        assert io_ratio < 1.08, policy
