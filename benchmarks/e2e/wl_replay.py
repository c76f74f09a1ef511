"""The two single-process replay workloads.

``replay-steady`` replays lun1 through the legacy loop; ``replay-frontend``
replays the read-heavy lun6 through the event frontend with the batch
kernels at queue depth 32.  Both run ftl, mrsm and across on freshly
aged devices: building and aging are set-up, the three
``Simulator.run`` calls are the timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import time

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
from repro.experiments.benchgate import report_digest
from repro.experiments.workloads import lun_specs
from repro.flash.service import FlashService
from repro.traces.columnar import decode_segments
from repro.traces.model import OP_TRIM, OP_WRITE
from repro.traces.synthetic import generate_trace
from repro.traces.systor import load_systor, save_systor


def run(p: Pass, *, frontend: bool) -> None:
    cfg = bench_device(p.sizes)
    sim_cfg = aged_sim_cfg()
    if frontend:
        sim_cfg = (
            aged_sim_cfg(queue_depth=32)
            .replace_frontend(enabled=True)
            .replace_batch(enabled=True)
        )
    lun = "lun6" if frontend else "lun1"
    spec = next(
        s
        for s in lun_specs(
            cfg,
            scale=p.sizes.replay_scale,
            footprint_fraction=0.8,
            seed_base=p.seed,
        )
        if s.name == lun
    )
    tr = p.tracer
    digests: dict[str, list[str]] = {s: [] for s in SCHEMES}
    reports = {}
    rep, timed = 0, 0.0
    while p.more_reps(rep, timed):
        p.begin_rep(rep)
        clear_trace_memo()
        t_rep = time.perf_counter()
        with tr.span("setup") as setup:
            with tr.span("traces.synth") as sp:
                trace = generate_trace(spec, memo=False)
            p.sample("traces.synth_s", sp.seconds)
            sims = {}
            build = 0.0
            for s in SCHEMES:
                with tr.span(f"sim.build.{s}") as sp:
                    sims[s] = build_sim(s, cfg, sim_cfg)
                build += sp.seconds
                with tr.span(f"sim.age.{s}") as sp:
                    sims[s].age_device()
                p.sample(f"sim.age_s.{s}", sp.seconds)
            p.sample("sim.build_s", build)
        with tr.span("timed") as region:
            for s in SCHEMES:
                with tr.span(f"sim.replay.{s}") as sp:
                    reports[s] = sims[s].run(trace)
                p.sample(f"sim.replay_s.{s}", sp.seconds)
        p.sample("setup_s", setup.seconds)
        p.sample("wall_s", region.seconds)
        p.sample("rep_s", time.perf_counter() - t_rep)
        timed += region.seconds
        for s in SCHEMES:
            digests[s].append(report_digest(reports[s]))
        # drop the aged devices outside the timed region so the next
        # rep starts from the same heap
        del sims
        gc.collect()
        rep += 1

    p.end_reps()
    n = len(trace)
    for s in SCHEMES:
        p.checks.op(reports[s].requests == n, f"{s}: replayed {n} requests")
        p.checks.same(f"{s}: digest across reps", digests[s])
        p.checks.op(reports[s].counters.erases > 0, f"{s}: GC-active (erases > 0)")
        p.digests[s] = digests[s][0]
    _oracle_head(p, cfg, sim_cfg, trace)

    # a burst of host noise spoils one scheme's replay in one rep, not
    # the whole rep, so the timed region is estimated scheme by scheme
    wall = sum(p.best(f"sim.replay_s.{s}") for s in SCHEMES)
    p.metrics["setup_s"] = p.setup_once + p.med("setup_s")
    p.metrics["wall_s"] = wall
    p.metrics["sim_req_per_s"] = len(SCHEMES) * n / wall
    if p.traced:
        _layers(p, cfg, sim_cfg, trace, reports, frontend)


def _oracle_head(p: Pass, cfg, sim_cfg, trace) -> None:
    """Replay the head of the trace with every read checked against the
    sector oracle, on an aged (GC-active) device."""
    head = trace.head(p.sizes.oracle_head)
    checked = dataclasses.replace(sim_cfg, check_oracle=True)
    for s in SCHEMES:
        try:
            verified = build_sim(s, cfg, checked).run(head).extra.get(
                "oracle_reads_verified", 0
            )
        except Exception as exc:  # a wrong read raises; count it, go on
            verified = 0
            print(f"  oracle replay raised: {type(exc).__name__}: {exc}")
        p.checks.op(verified > 0, f"{s}: oracle verified {verified} reads")


def _drive_ftl(ftl, trace) -> None:
    """The trace straight into the FTL: no engine, no data cache."""
    write, read, trim = ftl.write, ftl.read, ftl.trim
    for op, off, size, ts in zip(
        trace.ops.tolist(),
        trace.offsets.tolist(),
        trace.sizes.tolist(),
        trace.times.tolist(),
    ):
        if op == OP_WRITE:
            write(off, size, ts, None)
        elif op == OP_TRIM:
            trim(off, size, ts)
        else:
            read(off, size, ts)


def _layers(p: Pass, cfg, sim_cfg, trace, reports, frontend: bool) -> None:
    """Per-layer probes of the traced pass: calls into each layer this
    workload crosses, bracketed from here."""
    tr, m = p.tracer, p.metrics
    n = len(trace)

    m["traces.synth_s"] = p.best("traces.synth_s")
    m["traces.synth_req_per_s"] = n / p.best("traces.synth_s")
    m["sim.build_s"] = p.best("sim.build_s")
    with tr.span("probe.ftl_direct"):
        for s in SCHEMES:
            sim = build_sim(s, cfg, sim_cfg)
            sim.age_device()
            with tr.span(f"ftl.direct.{s}") as sp:
                _drive_ftl(sim.ftl, trace)
            m[f"ftl.direct_s.{s}"] = sp.seconds
    for s in SCHEMES:
        r = reports[s]
        m[f"sim.age_s.{s}"] = p.best(f"sim.age_s.{s}")
        m[f"sim.replay_s.{s}"] = p.best(f"sim.replay_s.{s}")
        m[f"sim.replay_req_per_s.{s}"] = n / p.best(f"sim.replay_s.{s}")
        # the direct drive also sends the reads the data cache absorbs
        # to the FTL, so this is a floor on the engine's own share
        m[f"sim.self_s.{s}"] = m[f"sim.replay_s.{s}"] - m[f"ftl.direct_s.{s}"]
        m[f"ftl.flash_reads.{s}"] = r.counters.total_reads
        m[f"ftl.flash_writes.{s}"] = r.counters.total_writes
        m[f"ftl.erases.{s}"] = r.counters.erases
        m[f"ftl.gc_migrated_pages.{s}"] = r.extra["gc_migrated_pages"]
        m[f"ftl.dram_accesses.{s}"] = r.counters.dram_accesses

    if not frontend:
        # the batch kernels must reproduce the legacy loop bit for bit
        batch_cfg = sim_cfg.replace_batch(enabled=True)
        total = 0.0
        with tr.span("probe.batch"):
            for s in SCHEMES:
                sim = build_sim(s, cfg, batch_cfg)
                sim.age_device()
                with tr.span(f"sim.replay_batch.{s}") as sp:
                    report = sim.run(trace)
                total += sp.seconds
                p.checks.same(
                    f"{s}: legacy digest == batch digest",
                    [p.digests[s], report_digest(report)],
                )
        m["sim.replay_batch_s"] = total

    with tr.span("traces.decode") as sp:
        for _ in decode_segments(
            trace, max_batch=512, spp=cfg.sectors_per_page
        ):
            pass
    m["traces.decode_s"] = sp.seconds
    with workdir("systor-") as tmp, tr.span("traces.systor_roundtrip") as sp:
        save_systor(trace, tmp / "trace.csv")
        back = load_systor(tmp / "trace.csv")
    m["traces.systor_roundtrip_s"] = sp.seconds
    p.checks.op(len(back) == n, "systor round trip keeps every request")

    _flash_ops(p, cfg)

    ext = {s: reports[s].extra for s in SCHEMES}
    m["sim.frontend_hazard_stalls"] = ext["across"].get("frontend_hazard_stalls", 0)
    m["sim.frontend_reordered"] = ext["across"].get("frontend_reordered", 0)
    m["sim.frontend_cache_bypass"] = ext["across"].get("frontend_cache_bypass", 0)
    hits, misses = ext["mrsm"]["map_cache_hits"], ext["mrsm"]["map_cache_misses"]
    m["ftl.map_cache_hit_ratio.mrsm"] = hits / max(1, hits + misses)
    a = ext["across"]
    merges = a["across_profitable_amerge"] + a["across_unprofitable_amerge"]
    m["core.amerge_profitable_ratio"] = a["across_profitable_amerge"] / max(1, merges)
    m["core.rollback_ratio"] = a["across_rollback_ratio"]
    m["core.amt_cache_hit_ratio"] = a["amt_cache_hits"] / max(
        1, a["amt_cache_hits"] + a["amt_cache_misses"]
    )
    across = reports["across"]
    m["cache.hit_ratio"] = across.counters.cache_hits / max(
        1, across.latency.read_count
    )
    m["cache.entries"] = a.get("cache_entries", 0)
    ftl = reports["ftl"]
    m["sim_response_vs_ftl"] = mean_response_ms(across) / mean_response_ms(ftl)
    m["sim_erases_vs_ftl"] = across.counters.erases / max(1, ftl.counters.erases)

    m["trace_overhead_frac"] = p.overhead("wall_s")
    m["trace_coverage_frac"] = tr.coverage(p.workload, 1, p.samples["rep_s"][1])


def _flash_ops(p: Pass, cfg) -> None:
    """Timed ``program_page``/``read_page`` calls on a fresh service."""
    service = FlashService(cfg)
    geom = service.geom
    ppb = cfg.pages_per_block
    ppns = []
    plane = 0
    while len(ppns) < p.sizes.flash_ops:
        first = geom.first_ppn_of_block(service.pop_free_block(plane))
        ppns.extend(range(first, first + ppb))
        plane = (plane + 1) % service.num_planes
    program, read = service.program_page, service.read_page
    with p.tracer.span("flash.program") as sp:
        for i, ppn in enumerate(ppns):
            program(ppn, None, float(i))
    p.metrics["flash.program_us"] = sp.seconds / len(ppns) * 1e6
    with p.tracer.span("flash.read") as sp:
        for i, ppn in enumerate(ppns):
            read(ppn, float(i))
    p.metrics["flash.read_us"] = sp.seconds / len(ppns) * 1e6
