"""Ablation: DRAM mapping-cache budget sensitivity.

DESIGN.md §5.3 — the paper attributes MRSM's losses to its mapping
table exceeding DRAM (42.1% residency at Table 1 settings).  Sweeping
the budget shows MRSM's flash map traffic collapsing once the table
fits, while Across-FTL barely notices the budget at all.
"""

from repro.experiments.runner import run_trace
from repro.metrics.report import render_table
from conftest import publish

# budgets as fractions of the baseline table's entry count
BUDGETS = (0.25, 0.5, 1.0, 4.0)


def test_ablation_cmt(ctx, results_dir, benchmark):
    name = ctx.lun_names()[0]  # lun1 is enough for a sensitivity sweep

    def run():
        trace = ctx.lun_trace(name)
        base_entries = ctx.cfg.logical_pages
        rows = {}
        for frac in BUDGETS:
            entries = max(1024, int(base_entries * frac))
            cfg = ctx.cfg.replace(mapping_cache_entries=entries)
            m = run_trace("mrsm", trace, cfg, ctx.sim_cfg)
            a = run_trace("across", trace, cfg, ctx.sim_cfg)
            rows[f"budget {frac:g}x"] = [
                m.counters.map_write_share(),
                m.counters.map_read_share(),
                m.mean_read_ms,
                a.counters.map_write_share(),
                a.mean_read_ms,
            ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = render_table(
        f"Ablation — mapping-cache budget sweep ({name})",
        ["mrsm_mapW%", "mrsm_mapR%", "mrsm_rd_ms", "across_mapW%",
         "across_rd_ms"],
        rows,
        float_fmt="{:.4f}",
    )
    publish(results_dir, "ablation_cmt", rendered)

    labels = list(rows)
    smallest, largest = rows[labels[0]], rows[labels[-1]]
    # MRSM is budget-sensitive: map traffic shrinks with more DRAM
    assert largest[0] < smallest[0]
    assert largest[1] < smallest[1]
    for label in labels:
        # at every budget Across-FTL spills less than MRSM ...
        assert rows[label][3] < rows[label][0], label
    # ... and at the Table 1 budget (1x = the baseline table fits) its
    # map share is negligible while MRSM still thrashes (paper Fig. 10)
    at_1x = rows["budget 1x"]
    assert at_1x[3] < 0.02
    assert at_1x[0] > 0.05
