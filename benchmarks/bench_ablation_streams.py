"""Ablation: hot/cold write-stream separation (library extension).

GC-migrated pages are colder than fresh user data; giving them their
own active blocks avoids mixing lifetimes in one erase block.  This
sweep quantifies the migration/erase effect for the baseline FTL and
Across-FTL on lun1, and shows Across-FTL's advantage persists with the
extension enabled.  Separation is the ``hot_cold`` GC policy: greedy
victim selection, as in the ``greedy`` baseline it is compared with,
plus separate active blocks for GC traffic.
"""

from repro.experiments.runner import run_trace
from repro.metrics.report import render_table
from conftest import publish


def test_ablation_streams(ctx, results_dir, benchmark):
    name = ctx.lun_names()[0]

    def run():
        trace = ctx.lun_trace(name)
        rows = {}
        for separated in (False, True):
            cfg = ctx.cfg.replace(
                gc_policy="hot_cold" if separated else "greedy"
            )
            f = run_trace("ftl", trace, cfg, ctx.sim_cfg)
            a = run_trace("across", trace, cfg, ctx.sim_cfg)
            rows["separated" if separated else "shared"] = [
                f.extra["gc_migrated_pages"],
                f.erase_count,
                a.erase_count,
                a.erase_count / max(1, f.erase_count),
                a.total_io_ms / max(1e-9, f.total_io_ms),
            ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = render_table(
        f"Ablation — hot/cold stream separation ({name})",
        ["ftl_migrated", "ftl_erases", "across_erases",
         "across/ftl_erases", "across/ftl_io"],
        rows,
    )
    publish(results_dir, "ablation_streams", rendered)
    for label, (_, _, _, erase_ratio, io_ratio) in rows.items():
        # the ablation's claim is about erase counts; latency on a
        # single trace is only sanity-checked (burst-window noise)
        assert erase_ratio < 1.1, label
        assert io_ratio < 1.3, label
