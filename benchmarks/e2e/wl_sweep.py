"""``aged-sweep``: the Fig. 9-12 grid through the pool and the store.

Six traces x three schemes fan out over two spawn workers against an
empty :class:`ResultStore` (cold), then the identical sweep is answered
from the filled store (warm).  Each worker ages its own device, so
aging, pool start-up, spec pickling, key hashing and store I/O carry
the time here; replay itself is a small share.
"""

from __future__ import annotations

import os
import pickle
import time
from statistics import mean

from harness import (
    SCHEMES,
    Pass,
    aged_sim_cfg,
    bench_device,
    build_sim,
    clear_trace_memo,
    mean_response_ms,
    workdir,
)
from repro.config import SimConfig
from repro.experiments.benchgate import report_digest
from repro.experiments.parallel import ResultStore, RunSpec, execute_runs
from repro.experiments.runner import ExperimentContext
from repro.metrics.report import SimulationReport
from repro.traces.model import Trace

JOBS = min(2, os.cpu_count() or 1)


def _digests(grid) -> dict[str, str]:
    return {
        f"{lun}/{s}": report_digest(r)
        for lun, row in grid.items()
        for s, r in row.items()
    }


def run(p: Pass) -> None:
    cfg = bench_device(p.sizes)
    sim_cfg = aged_sim_cfg()
    tr = p.tracer

    def context(store) -> ExperimentContext:
        """A context with its six traces ready (generated on the first
        call of a rep, answered by the trace memo afterwards)."""
        ctx = ExperimentContext(
            cfg=cfg,
            sim_cfg=sim_cfg,
            scale=p.sizes.sweep_scale,
            footprint_fraction=0.8,
            seed_base=p.seed,
            jobs=JOBS,
            store=store,
        )
        ctx.lun_trace("lun1")
        return ctx

    cold_digests: list[dict[str, str]] = []
    rep, timed = 0, 0.0
    while p.more_reps(rep, timed):
        p.begin_rep(rep)
        clear_trace_memo()
        t_rep = time.perf_counter()
        with workdir("sweep-") as tmp:
            with tr.span("setup") as sp:
                store = ResultStore(tmp)
                with tr.span("traces.synth") as synth:
                    ctx = context(store)
            setup = sp.seconds
            p.sample("traces.synth_s", synth.seconds)
            with tr.span("sweep.cold") as sp:
                grid = ctx.sweep()
            cold = sp.seconds
            warm = []
            for _ in range(p.sizes.warm_sweeps):
                # a fresh context has an empty in-memory memo, so the
                # sweep is answered by the store, not by ``ctx._runs``
                with tr.span("setup") as sp:
                    again = context(store)
                setup += sp.seconds
                with tr.span("sweep.warm") as sp:
                    warm_grid = again.sweep()
                warm.append(sp.seconds)
            stats = store.stats()
            store_bytes = sum(f.stat().st_size for f in tmp.glob("*.json"))
        p.sample("rep_s", time.perf_counter() - t_rep)
        p.sample("setup_s", setup)
        p.sample("sweep_cold_s", cold)
        p.samples.setdefault("sweep_warm_s", []).extend(warm)
        p.sample("wall_s", cold + sum(warm))
        runs = [r for row in grid.values() for r in row.values()]
        p.sample(
            "experiments.pool_overhead_s",
            cold - sum(r.wall_seconds for r in runs) / JOBS,
        )
        timed += cold + sum(warm)

        digests = _digests(grid)
        cold_digests.append(digests)
        p.checks.op(len(runs) == 6 * len(SCHEMES), "sweep returned 18 reports")
        # every warm sweep reads the same store files: check the last
        p.checks.op(_digests(warm_grid) == digests, "warm sweep == cold sweep")
        n = len(runs)
        p.checks.op(
            stats["puts"] == n and stats["misses"] == n
            and stats["hits"] == n * p.sizes.warm_sweeps,
            f"store answered every warm run: {stats}",
        )
        rep += 1

    p.end_reps()
    p.checks.op(
        all(d == cold_digests[0] for d in cold_digests),
        "sweep digests identical across reps",
    )
    p.digests.update(cold_digests[0])
    trace = ctx.lun_trace("lun1")
    local = {}
    for s in SCHEMES if p.traced else ("across",):
        with tr.span(f"sim.build.{s}") as b:
            sim = build_sim(s, cfg, sim_cfg)
        with tr.span(f"sim.age.{s}") as a:
            sim.age_device()
        with tr.span(f"sim.replay.{s}") as r:
            local[s] = sim.run(trace)
        p.sample(f"sim.age_s.{s}", a.seconds)
        p.sample(f"sim.replay_s.{s}", r.seconds)
        p.sample("sim.build_s", b.seconds)
    p.checks.same(
        "lun1/across in-process == pool",
        [report_digest(local["across"]), cold_digests[0]["lun1/across"]],
    )

    requests = sum(r.requests for r in runs)
    p.metrics["setup_s"] = p.setup_once + p.med("setup_s")
    p.metrics["wall_s"] = (
        p.best("sweep_cold_s") + p.sizes.warm_sweeps * p.med("sweep_warm_s")
    )
    p.metrics["sim_req_per_s"] = requests / p.best("sweep_cold_s")
    if p.traced:
        _layers(p, ctx, grid, local, stats, store_bytes)


def _layers(p: Pass, ctx, grid, local, stats, store_bytes) -> None:
    tr, m = p.tracer, p.metrics
    runs = [r for row in grid.values() for r in row.values()]
    # the paper's two headline ratios, averaged over the six traces
    m["sim_response_vs_ftl"] = mean(
        mean_response_ms(row["across"]) / mean_response_ms(row["ftl"])
        for row in grid.values()
    )
    m["sim_erases_vs_ftl"] = mean(
        row["across"].counters.erases / max(1, row["ftl"].counters.erases)
        for row in grid.values()
    )
    m["sweep_cold_s"] = p.best("sweep_cold_s")
    m["sweep_warm_s"] = p.med("sweep_warm_s")
    m["experiments.pool_overhead_s"] = p.best("experiments.pool_overhead_s")
    m["traces.synth_s"] = p.best("traces.synth_s")
    m["traces.synth_req_per_s"] = (
        sum(r.requests for r in runs) / len(SCHEMES) / m["traces.synth_s"]
    )
    m["sim.build_s"] = sum(p.samples["sim.build_s"])
    n = len(ctx.lun_trace("lun1"))
    for s in SCHEMES:
        m[f"sim.age_s.{s}"] = p.best(f"sim.age_s.{s}")
        m[f"sim.replay_s.{s}"] = p.best(f"sim.replay_s.{s}")
        m[f"sim.replay_req_per_s.{s}"] = n / p.best(f"sim.replay_s.{s}")
        c = local[s].counters
        m[f"ftl.flash_reads.{s}"] = c.total_reads
        m[f"ftl.flash_writes.{s}"] = c.total_writes
        m[f"ftl.erases.{s}"] = c.erases
        m[f"ftl.gc_migrated_pages.{s}"] = local[s].extra["gc_migrated_pages"]
        m[f"ftl.dram_accesses.{s}"] = c.dram_accesses

    specs = [
        RunSpec.make(s, ctx.lun_trace(lun), ctx.cfg, ctx.sim_cfg)
        for lun in ctx.lun_names()
        for s in SCHEMES
    ]
    with tr.span("experiments.run_key") as sp:
        for spec in specs:
            spec.key()
    m["experiments.run_key_s"] = sp.seconds
    with tr.span("experiments.spec_pickle") as sp:
        blobs = [pickle.dumps(spec) for spec in specs]
    m["experiments.spec_pickle_s"] = sp.seconds
    m["experiments.spec_pickle_bytes"] = sum(len(b) for b in blobs)
    m["experiments.spawn_s"] = spawn_seconds(p)
    with workdir("store-") as tmp:
        store = ResultStore(tmp)
        with tr.span("experiments.store_put") as sp:
            for spec, report in zip(specs, runs):
                store.put(spec, report)
        m["experiments.store_put_s"] = sp.seconds
        with tr.span("experiments.store_get") as sp:
            back = [store.get(spec) for spec in specs]
        m["experiments.store_get_s"] = sp.seconds
    p.checks.op(
        [report_digest(r) for r in back] == [report_digest(r) for r in runs],
        "store round trip keeps every report",
    )
    m["experiments.store_bytes"] = store_bytes
    m["experiments.store_hit_ratio"] = stats["hits"] / max(
        1, stats["hits"] + stats["misses"]
    )

    with tr.span("metrics.to_json") as sp:
        texts = [r.to_json() for r in runs]
    m["metrics.to_json_s"] = sp.seconds
    m["metrics.report_bytes"] = sum(len(t) for t in texts)
    docs = [r.to_dict() for r in runs]
    with tr.span("metrics.from_dict") as sp:
        for d in docs:
            SimulationReport.from_dict(d)
    m["metrics.from_dict_s"] = sp.seconds
    with tr.span("metrics.digest") as sp:
        for r in runs:
            report_digest(r)
    m["metrics.digest_s"] = sp.seconds

    m["trace_overhead_frac"] = p.overhead("wall_s")
    m["trace_coverage_frac"] = tr.coverage(p.workload, 1, p.samples["rep_s"][1])


def spawn_seconds(p: Pass) -> float:
    """Pool start-up alone: two empty-trace runs over two workers."""
    cfg = bench_device(p.sizes)
    specs = [
        RunSpec.make(s, Trace.from_lists("empty", []), cfg, SimConfig())
        for s in ("ftl", "across")
    ]
    with p.tracer.span("experiments.spawn") as sp:
        out = execute_runs(specs, jobs=JOBS)
    p.checks.op(out.ok and out.executed == 2, "empty-trace pool runs finished")
    return sp.seconds
