"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``characterize``
    Table 2 / Fig. 13 metrics for trace files (SYSTOR'17 or MSR) or the
    built-in synthetic presets.
``run``
    Simulate one trace under one scheme and print the full report.
``compare``
    Run all three schemes on the same trace and print the normalised
    comparison (the Fig. 9/10/11 view).
``figures``
    Regenerate paper figures by name (or ``all``), writing the rendered
    tables to an output directory.
``check``
    Correctness harness (:mod:`repro.check`): differential replay of a
    trace across all schemes with invariant sweeps on (point run), a
    seeded ``--fuzz N`` campaign over random synthetic workloads, or a
    ``--replay`` of a dumped counterexample.
``profile``
    Latency attribution over the pinned golden-fixture scenarios: per-phase
    breakdown tables, a Fig. 4-style stacked-bar SVG, optional phase
    Chrome traces and an optional cProfile wall-clock harness.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import SCHEMES, SimConfig, SSDConfig
from .experiments.runner import ExperimentContext, run_trace
from .metrics.report import normalize, render_table
from .traces.model import Trace
from .traces.msr import load_msr
from .traces.stats import characterize
from .traces.systor import load_systor
from .units import KIB


def _load_trace(args, cfg: SSDConfig) -> Trace:
    if getattr(args, "workload", None):
        from .traces.workload_spec import WorkloadSpec, compile_workload

        spec = WorkloadSpec.from_json(Path(args.workload).read_text())
        return compile_workload(spec, int(cfg.logical_sectors * 0.9))
    if args.trace:
        loaders = {
            "msr": load_msr,
            "systor": load_systor,
        }
        if args.format == "blktrace":
            from .traces.blktrace import load_blktrace

            trace = load_blktrace(args.trace)
        else:
            trace = loaders[args.format](args.trace)
        return trace.clamped_to(int(cfg.logical_sectors * 0.9))
    from .experiments.workloads import lun_specs
    from .traces.synthetic import generate_trace

    specs = {s.name: s for s in lun_specs(cfg, scale=args.scale)}
    if args.lun not in specs:
        raise SystemExit(f"unknown lun preset {args.lun!r}; have {sorted(specs)}")
    return generate_trace(specs[args.lun])


def _device(args) -> SSDConfig:
    cfg = SSDConfig.paper_table1() if args.full_device else SSDConfig.bench_default()
    if args.page_size:
        cfg = cfg.with_page_size(args.page_size * KIB)
    return cfg


def _sim_cfg(args) -> SimConfig:
    cfg = SimConfig(
        aged_used=args.aged_used,
        aged_valid=args.aged_valid,
        progress=getattr(args, "progress", False),
        queue_depth=getattr(args, "queue_depth", None),
    )
    if getattr(args, "event_frontend", False):
        cfg = cfg.replace_frontend(enabled=True)
    return cfg


def _store(args):
    """The persistent ResultStore named by ``--store`` (or None)."""
    if not getattr(args, "store", None):
        return None
    from .experiments.parallel import ResultStore

    return ResultStore(args.store)


def _print_images(images) -> None:
    """``images: N built, M restored`` on stderr (stdout stays the
    command's table): how the sweep's aged devices were obtained."""
    from .experiments.parallel import images_line

    print(images_line(images), file=sys.stderr)


def _add_fault_sweep(p: argparse.ArgumentParser) -> None:
    """Shared fault-intensity sweep axis (``faults`` and ``endure``)."""
    p.add_argument("--levels", type=float, nargs="+",
                   default=[0.0, 0.5, 1.0, 2.0],
                   help="intensity multipliers on the stress preset "
                        "(0 = injection off)")
    p.add_argument("--fault-seed", type=int, default=7,
                   help="fault-injection RNG seed")


def _gc_policies(values) -> tuple:
    """The GC policy names of repeatable ``--gc-policies`` comma lists,
    in order and each once (``all`` = every registered policy; none
    given = empty); exits on an unknown name."""
    from .config import GC_POLICIES

    names = [n.strip() for v in values or () for n in v.split(",")]
    names = [n for n in names if n]
    if "all" in names:
        return GC_POLICIES
    for name in names:
        if name not in GC_POLICIES:
            raise SystemExit(f"unknown GC policy {name!r}; have {GC_POLICIES}")
    return tuple(dict.fromkeys(names))


def _fault_axis(args):
    """(base FaultConfig, levels) from the shared sweep arguments."""
    from .config import FaultConfig

    return FaultConfig.stress(seed=args.fault_seed), list(args.levels)


def _add_parallel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for independent runs "
                        "(default 1 = in-process)")
    p.add_argument("--store",
                   help="directory of the persistent result store; "
                        "completed runs are reused across invocations")


def _add_figures_ctx(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_figures_ctx` reads."""
    p.add_argument("--scale", type=float, default=0.03)
    p.add_argument("--full-device", action="store_true")
    p.add_argument("--aged-used", type=float, default=0.90)
    p.add_argument("--aged-valid", type=float, default=0.398)
    _add_parallel(p)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", help="trace file (SYSTOR'17 by default)")
    p.add_argument("--workload",
                   help="fio-style JSON workload spec (instead of a trace)")
    p.add_argument("--format", choices=("systor", "msr", "blktrace"),
                   default="systor")
    p.add_argument("--lun", default="lun1",
                   help="synthetic preset when no --trace given")
    p.add_argument("--scale", type=float, default=0.01,
                   help="request-count scale for synthetic presets")
    p.add_argument("--page-size", type=int, choices=(4, 8, 16),
                   help="flash page size in KiB (default 8)")
    p.add_argument("--full-device", action="store_true",
                   help="use the full Table 1 geometry (slow)")
    p.add_argument("--aged-used", type=float, default=0.90)
    p.add_argument("--aged-valid", type=float, default=0.398)
    p.add_argument("--progress", action="store_true",
                   help="print a throttled progress line to stderr")
    p.add_argument("--queue-depth", type=int, metavar="N",
                   help="host NCQ depth (default: unlimited)")
    p.add_argument("--event-frontend", action="store_true",
                   help="replay through the event-driven frontend "
                        "(hazard-aware NCQ with per-chip schedulers) "
                        "instead of the sequential loop")


def cmd_characterize(args) -> int:
    """``repro characterize``: Table 2 metrics for traces."""
    traces = []
    if args.files:
        loader = load_msr if args.format == "msr" else load_systor
        traces = [loader(f) for f in args.files]
    else:
        cfg = SSDConfig.bench_default()
        from .experiments.workloads import lun_traces

        traces = lun_traces(cfg, scale=args.scale)
    rows = {}
    for t in traces:
        st = characterize(t, args.page_size_kib * KIB)
        rows[t.name] = [
            st.requests,
            f"{st.write_ratio:.1%}",
            f"{st.mean_write_kb:.1f}KB",
            f"{st.unaligned_ratio:.1%}",
            f"{st.across_ratio:.1%}",
        ]
    print(render_table(
        f"trace characterisation ({args.page_size_kib} KiB pages)",
        ["requests", "write R", "write SZ", "unaligned", "across R"],
        rows,
    ))
    return 0


def cmd_run(args) -> int:
    """``repro run``: simulate one scheme on one trace."""
    cfg = _device(args)
    trace = _load_trace(args, cfg)
    rep = run_trace(args.scheme, trace, cfg, _sim_cfg(args))
    print(cfg.summary())
    print(f"\n{rep.scheme} on {rep.trace_name}: {rep.requests} requests "
          f"in {rep.wall_seconds:.1f}s wall time")
    rows = {
        "latency": [
            f"read {rep.mean_read_ms:.3f} ms",
            f"write {rep.mean_write_ms:.3f} ms",
            f"total {rep.total_io_ms / 1000:.2f} s",
        ],
        "flash ops": [
            f"reads {rep.counters.total_reads}",
            f"writes {rep.counters.total_writes}",
            f"erases {rep.erase_count}",
        ],
        "map share": [
            f"W {rep.counters.map_write_share():.2%}",
            f"R {rep.counters.map_read_share():.2%}",
            f"DRAM {rep.counters.dram_accesses}",
        ],
        "health": [
            f"cache hits {rep.cache_hits}",
            f"GC stalls {rep.gc_stalls}",
            "",
        ],
    }
    print(render_table("results", ["", "", ""], rows))
    for k in sorted(rep.extra):
        print(f"  {k}: {rep.extra[k]}")
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: replay a workload with full observability on and
    dump the artifacts (Chrome trace, span JSONL, Prometheus snapshot,
    counter/series JSON) to ``--out``."""
    from .flash.service import FlashService
    from .ftl import make_ftl
    from .sim.engine import Simulator

    cfg = _device(args)
    trace = _load_trace(args, cfg)
    sim_cfg = _sim_cfg(args).replace_observability(
        enabled=True,
        trace=True,
        sample_interval_ms=args.sample_interval_ms,
    )
    service = FlashService(cfg)
    ftl = make_ftl(args.scheme, service)
    sim = Simulator(ftl, sim_cfg)
    rep = sim.run(trace)
    paths = sim.obs.write_artifacts(args.out, rep.counters, rep.extra)
    print(f"{rep.scheme} on {rep.trace_name}: {rep.requests} requests, "
          f"{sim.obs.bus.events_emitted} events, "
          f"{len(sim.obs.recorder)} spans "
          f"in {rep.wall_seconds:.1f}s wall time")
    hist = sim.obs.recorder.path_histogram()
    if hist:
        print("FTL paths: " + ", ".join(
            f"{k}={v}" for k, v in sorted(hist.items())
        ))
    for kind, path in paths.items():
        print(f"  {kind}: {path}")
    print("open the Chrome trace at https://ui.perfetto.dev "
          "or chrome://tracing")
    return 0


def cmd_profile(args) -> int:
    """``repro profile``: where does each request's latency go?

    Replays the pinned golden-fixture scenarios (or a ``--scenario``
    subset) with latency attribution on and writes, under ``--out``:

    * ``breakdown.txt`` — per-scenario tables of mean ms per request
      split by attribution phase and request class;
    * ``profile.svg`` — the paper's Fig. 4 view: one stacked bar per
      scenario, one segment per phase;
    * ``attribution-<scenario>.json`` — the full attribution summary
      (sketches included) for downstream analysis;
    * with ``--trace``, ``trace-<scenario>.json`` — a Chrome trace
      whose request slices carry per-phase sub-slices;
    * with ``--cprofile``, ``cprofile-<scenario>.pstats`` plus a
      ``cprofile.txt`` top-function report (wall-clock harness).
    """
    import cProfile
    import io
    import pstats

    from .experiments.benchgate import scenarios
    from .experiments.charts import stacked_bar_svg
    from .flash.service import FlashService
    from .ftl import make_ftl
    from .obs.attribution import AttributionRecorder, PHASES
    from .sim.engine import Simulator

    available = {sc.name: sc for sc in scenarios()}
    names = args.scenario or list(available)
    unknown = [n for n in names if n not in available]
    if unknown:
        raise SystemExit(
            f"unknown scenario(s) {unknown}; have {sorted(available)}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tables: list[str] = []
    per_scenario_phase: dict[str, dict[str, float]] = {}
    cprofile_reports: list[str] = []
    for name in names:
        sc = available[name]
        cfg = sc.make_cfg()
        trace = sc.make_trace(cfg)
        sim_cfg = sc.make_sim_cfg().replace_observability(
            enabled=True, attribution=True, trace=args.trace
        )
        service = FlashService(cfg)
        ftl = make_ftl(sc.scheme, service)
        sim = Simulator(ftl, sim_cfg)
        if args.cprofile:
            prof = cProfile.Profile()
            prof.enable()
            rep = sim.run(trace)
            prof.disable()
            pstats_path = out / f"cprofile-{name}.pstats"
            prof.dump_stats(pstats_path)
            buf = io.StringIO()
            stats = pstats.Stats(prof, stream=buf)
            stats.sort_stats("cumulative").print_stats(args.top)
            cprofile_reports.append(
                f"== {name} ({rep.requests} requests, "
                f"{rep.wall_seconds:.2f}s wall) ==\n{buf.getvalue()}"
            )
            print(f"  cprofile: {pstats_path}")
        else:
            rep = sim.run(trace)
        summary = rep.attribution or {}
        with open(out / f"attribution-{name}.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        if args.trace and sim.obs is not None and sim.obs.recorder is not None:
            trace_path = out / f"trace-{name}.json"
            sim.obs.recorder.write_chrome(trace_path)
            print(f"  chrome trace: {trace_path}")

        means = AttributionRecorder.mean_phase_breakdown(summary)
        requests = summary.get("requests", {})
        phases = [
            p for p in PHASES
            if any(cls.get(p, 0.0) > 0 for cls in means.values())
        ]
        rows = {
            f"{cls} (n={requests.get(cls, 0)})": [
                means[cls].get(p, 0.0) for p in phases
            ]
            for cls in sorted(means)
        }
        table = render_table(
            f"{name} ({sc.scheme}): mean ms/request by phase",
            phases,
            rows,
        )
        tables.append(table)
        print(table)
        print()

        totals = summary.get("phase_ms", {})
        n_total = sum(requests.values()) or 1
        per_scenario_phase[name] = {
            p: sum(cls.get(p, 0.0) for cls in totals.values()) / n_total
            for p in PHASES
        }

    breakdown_path = out / "breakdown.txt"
    breakdown_path.write_text("\n\n".join(tables) + "\n")
    print(f"wrote {breakdown_path}")

    shown = [
        p for p in PHASES
        if any(d.get(p, 0.0) > 0 for d in per_scenario_phase.values())
    ]
    svg = stacked_bar_svg(
        names,
        {p: [per_scenario_phase[n].get(p, 0.0) for n in names] for p in shown},
        title="Mean request latency by attribution phase (ms)",
    )
    svg_path = out / "profile.svg"
    svg_path.write_text(svg)
    print(f"wrote {svg_path}")
    if cprofile_reports:
        cp_path = out / "cprofile.txt"
        cp_path.write_text("\n".join(cprofile_reports))
        print(f"wrote {cp_path}")
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: all three schemes on one trace.

    The three runs are independent, so ``--jobs 3`` fans them out and
    ``--store`` reuses any of them finished by an earlier invocation.
    """
    from .experiments.parallel import RunSpec, execute_runs

    cfg = _device(args)
    trace = _load_trace(args, cfg)
    sim_cfg = _sim_cfg(args)
    specs = [RunSpec.make(s, trace, cfg, sim_cfg) for s in SCHEMES]
    outcome = execute_runs(
        specs,
        jobs=args.jobs,
        store=_store(args),
        progress=getattr(args, "progress", False),
    )
    _print_images(outcome.images)
    reports = dict(zip(SCHEMES, outcome.reports))
    io = normalize({s: r.total_io_ms for s, r in reports.items()})
    er = normalize({s: float(max(1, r.erase_count)) for s, r in reports.items()})
    rows = {
        s: [
            reports[s].mean_read_ms,
            reports[s].mean_write_ms,
            io[s],
            er[s],
            reports[s].counters.total_writes,
        ]
        for s in SCHEMES
    }
    print(render_table(
        f"{trace.name}: scheme comparison (io/erases normalised to FTL)",
        ["read ms", "write ms", "norm io", "norm erases", "flash writes"],
        rows,
    ))
    return 0


def cmd_faults(args) -> int:
    """``repro faults``: reliability sweep over fault-injection intensity.

    Runs the same trace and scheme at several intensities of the
    :meth:`~repro.config.FaultConfig.stress` preset (0 = injection off)
    and tabulates the reliability counters next to the latency impact.
    The runs are independent, so ``--jobs``/``--store`` apply as for
    ``compare``; see ``docs/reliability.md`` for the model.
    """
    from dataclasses import replace as _dc_replace

    from .experiments.parallel import RunSpec, execute_runs

    cfg = _device(args)
    trace = _load_trace(args, cfg)
    base, levels = _fault_axis(args)
    sim = _sim_cfg(args)
    specs = [
        RunSpec.make(
            args.scheme, trace, cfg,
            _dc_replace(sim, faults=base.scaled(lvl)),
        )
        for lvl in levels
    ]
    outcome = execute_runs(
        specs,
        jobs=args.jobs,
        store=_store(args),
        progress=getattr(args, "progress", False),
    )
    rows = {}
    for lvl, rep in zip(levels, outcome.reports):
        c = rep.counters
        rows[f"x{lvl:g}"] = [
            c.read_retries,
            c.uncorrectable_reads,
            c.program_fails,
            c.erase_fails,
            c.bad_blocks,
            c.fault_relocations,
            rep.mean_read_ms,
            rep.mean_write_ms,
        ]
    print(render_table(
        f"{trace.name} / {args.scheme}: fault-intensity sweep "
        f"(stress preset, seed {args.fault_seed})",
        ["retries", "uncorr", "pgm fail", "ers fail", "bad blk",
         "reloc", "read ms", "write ms"],
        rows,
    ))
    return 0


def cmd_endure(args) -> int:
    """``repro endure``: GC-policy endurance zoo.

    Sweeps the GC policy zoo against the shared fault-intensity axis
    (same ``--levels``/``--fault-seed`` wiring as ``repro faults``) and
    scores every cell on write amplification, wear variance and tail
    latency.  Cells are independent runs, so ``--jobs``/``--store``
    fan-out and memoisation apply; see ``docs/gc_policies.md``.
    """
    from .config import GC_POLICIES
    from .experiments.endurance import ROW_HEADERS, run_endurance

    cfg = _device(args)
    trace = _load_trace(args, cfg)
    policies = _gc_policies(args.gc_policies) or GC_POLICIES
    base, levels = _fault_axis(args)
    res = run_endurance(
        trace,
        cfg,
        _sim_cfg(args),
        scheme=args.scheme,
        policies=policies,
        fault_levels=levels,
        fault_seed=args.fault_seed,
        fault_base=base,
        jobs=args.jobs,
        store=_store(args),
        progress=getattr(args, "progress", False),
    )
    print(render_table(
        f"{trace.name} / {args.scheme}: endurance zoo "
        f"(policy x fault level, stress seed {args.fault_seed})",
        ROW_HEADERS,
        res.rows(),
    ))
    _print_images(res.images)
    return 0


def cmd_check(args) -> int:
    """``repro check``: differential replay & invariant checking.

    Three modes: ``--replay <file>`` re-runs a dumped counterexample;
    ``--fuzz N`` runs a seeded campaign of random synthetic workloads
    on a tiny geometry; otherwise the selected trace is replayed once
    across the requested schemes on the bench device.  Exit code 0
    means every comparison agreed and every invariant sweep passed.
    """
    from .check import differential_replay, replay_counterexample, run_fuzz
    from .check.shrink import dump_counterexample

    schemes = tuple(args.schemes) if args.schemes else SCHEMES
    # greedy is the base leg every policy leg is compared against
    policies = tuple(
        p for p in _gc_policies(args.gc_policies) if p != "greedy"
    )

    if args.replay:
        res = replay_counterexample(args.replay)
        print(res.summary())
        return 0 if res.ok else 1

    if args.fuzz:
        out = run_fuzz(
            args.fuzz,
            seed=args.seed,
            schemes=schemes,
            every=args.every,
            requests=args.requests,
            out_dir=args.out,
            attribution=args.attribution,
            frontend=args.frontend,
            policies=policies,
            log=print,
        )
        print(
            f"fuzz: {out.cases} case(s), {len(out.failures)} failing, "
            f"{len(out.artifacts)} counterexample(s) dumped"
        )
        return 0 if out.ok else 1

    cfg = _device(args)
    trace = _load_trace(args, cfg)
    qd_sweep: tuple = ()
    if args.qd_sweep:
        try:
            qd_sweep = tuple(
                int(q) for q in args.qd_sweep.split(",") if q.strip()
            )
        except ValueError:
            raise SystemExit(
                f"--qd-sweep expects comma-separated integers, "
                f"got {args.qd_sweep!r}"
            )
    res = differential_replay(
        trace,
        cfg,
        _sim_cfg(args),
        schemes=schemes,
        every=args.every,
        compare_cache=not args.skip_cache,
        compare_jobs=not args.skip_jobs,
        attribution=args.attribution,
        frontend=args.frontend,
        qd_sweep=qd_sweep,
        policies=policies,
    )
    print(res.summary())
    if not res.ok and args.out:
        path = dump_counterexample(
            Path(args.out) / f"counterexample-{trace.name}.json",
            trace=trace,
            cfg=cfg,
            sim_cfg=_sim_cfg(args),
            failures=res.failures,
            schemes=schemes,
        )
        print(f"counterexample: {path}")
    return 0 if res.ok else 1


#: figures built from the lun1-lun6 x scheme sweep at the default page
#: size — the points :func:`_prewarm_ctx` fans out before rendering
_SWEEP_FIGURES = frozenset(
    {"fig4", "fig8", "fig9", "fig10", "fig11", "fig12"}
)


def _prewarm_ctx(ctx: ExperimentContext, names) -> None:
    """Fan out every simulation the requested figures need, one batch.

    Figure functions call ``ctx.run`` point by point; prewarming first
    lets ``--jobs N`` parallelise the whole session (and primes the
    persistent store in one pass).
    """
    if ctx.jobs <= 1 and ctx.store is None:
        return
    from .experiments.figures import PAGE_SIZES

    pages = set()
    if _SWEEP_FIGURES & set(names):
        pages.add(ctx.cfg.page_size_bytes)
    if "fig14" in names:
        pages.update(PAGE_SIZES)
    if pages:
        ctx.prewarm(page_sizes=sorted(pages))


def _figures_ctx(args) -> ExperimentContext:
    """The context ``figures``, ``summary`` and ``report`` draw from:
    the bench device (Table 1's with ``--full-device``) aged by the VDI
    warm-up stream, as ``benchmarks/`` and EXPERIMENTS.md age it."""
    return ExperimentContext(
        cfg=SSDConfig.paper_table1() if args.full_device else SSDConfig.bench_default(),
        sim_cfg=SimConfig(
            aged_used=args.aged_used,
            aged_valid=args.aged_valid,
            aging_style="vdi",
        ),
        scale=args.scale,
        jobs=args.jobs,
        store=_store(args),
    )


def cmd_figures(args) -> int:
    """``repro figures``: regenerate paper figures by name."""
    from .experiments import figures as F

    names = args.names or ["all"]
    if names == ["all"]:
        names = list(F.ALL_FIGURES)
    unknown = [n for n in names if n not in F.ALL_FIGURES]
    if unknown:
        raise SystemExit(f"unknown figures {unknown}; have {sorted(F.ALL_FIGURES)}")
    ctx = _figures_ctx(args)
    _prewarm_ctx(ctx, names)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    for name in names:
        result = F.ALL_FIGURES[name](ctx)
        print(result.rendered)
        print()
        if out:
            (out / f"{name}.txt").write_text(result.rendered + "\n")
    _print_images(ctx.images)
    return 0


def cmd_summary(args) -> int:
    """``repro summary``: generate the paper-vs-measured markdown."""
    from .experiments.summary import render_experiments_md

    ctx = _figures_ctx(args)
    from .experiments.figures import ALL_FIGURES

    _prewarm_ctx(ctx, args.names or list(ALL_FIGURES))
    md = render_experiments_md(ctx, figures=args.names or None)
    if args.out:
        Path(args.out).write_text(md + "\n")
        print(f"wrote {args.out}")
    else:
        print(md)
    return 0


def cmd_lint(args) -> int:
    """``repro lint``: sanity-check trace files before simulating."""
    from .traces.lint import has_errors, lint_trace

    loaders = {"systor": load_systor, "msr": load_msr}
    if args.format == "blktrace":
        from .traces.blktrace import load_blktrace as loader
    else:
        loader = loaders[args.format]
    cfg = SSDConfig.bench_default()
    worst = 0
    for path in args.files:
        trace = loader(path)
        print(f"{path}: {len(trace)} requests")
        findings = lint_trace(
            trace,
            logical_sectors=cfg.logical_sectors if args.check_range else None,
            page_size_bytes=args.page_size_kib * KIB,
        )
        for f in findings:
            print(f"  {f}")
        if has_errors(findings):
            worst = 1
    return worst


def cmd_serve(args) -> int:
    """``repro serve``: the fleet-scale simulation service.

    Binds a local HTTP endpoint (see :mod:`repro.fleet.service` for the
    request schema) backed by a shared ResultStore, so repeated sweep
    and fleet requests are answered from cache without re-simulating.
    ``--once FILE`` handles a single JSON request from a file (or ``-``
    for stdin) and prints the response instead of serving — the same
    code path, usable from CI without managing a daemon.
    """
    import json as _json
    import signal

    from .experiments.parallel import ResultStore
    from .fleet.service import FleetService, make_server, serve_forever

    store = ResultStore(args.store)
    service = FleetService(
        store, device=SSDConfig.preset(args.device), jobs=args.jobs
    )
    if args.once:
        if args.once == "-":
            payload = _json.load(sys.stdin)
        else:
            payload = _json.loads(Path(args.once).read_text())
        with service:  # joins the worker pool the request may have spawned
            doc = service.handle_request(payload)
        print(_json.dumps(doc, indent=1, sort_keys=True))
        return 0 if doc.get("ok") else 1

    server = make_server(service, args.host, args.port)
    # a daemon is stopped with TERM as often as with Ctrl-C: both must
    # unwind through serve_forever's ``finally``, which joins the worker
    # pool — workers orphaned by a plain kill would wait forever
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        host, port = server.server_address[:2]
        print(f"repro serve listening on http://{host}:{port} "
              f"(store: {store.root}, device: {args.device}, "
              f"jobs: {args.jobs})", file=sys.stderr)
        serve_forever(server)
    except KeyboardInterrupt:
        print("repro serve: shut down", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """``repro report``: render the figure charts as an HTML report."""
    from .experiments.charts import render_report_html

    ctx = _figures_ctx(args)
    from .experiments.figures import ALL_FIGURES

    _prewarm_ctx(ctx, list(ALL_FIGURES))
    html = render_report_html(ctx)
    out = Path(args.out)
    out.write_text(html)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Across-FTL reproduction (ICPP 2023) command line",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="Table 2 metrics for traces")
    p.add_argument("files", nargs="*")
    p.add_argument("--format", choices=("systor", "msr"), default="systor")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--page-size-kib", type=int, default=8)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("run", help="simulate one scheme on one trace")
    p.add_argument("--scheme", choices=SCHEMES, default="across")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="all three schemes on one trace")
    _add_common(p)
    _add_parallel(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "trace",
        help="replay with tracing on and dump observability artifacts",
    )
    p.add_argument("--scheme", choices=SCHEMES, default="across")
    _add_common(p)
    p.add_argument("--out", default="obs-out",
                   help="artifact output directory")
    p.add_argument("--sample-interval-ms", type=float, default=10.0,
                   help="sampler tick in simulated ms (0 disables)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="latency attribution over the pinned golden-fixture scenarios",
    )
    p.add_argument("--scenario", action="append", metavar="NAME",
                   help="pinned scenario to profile (repeatable; "
                        "default: all five)")
    p.add_argument("--out", default="profile-out",
                   help="artifact output directory")
    p.add_argument("--trace", action="store_true",
                   help="also write per-scenario Chrome traces with "
                        "phase sub-slices")
    p.add_argument("--cprofile", action="store_true",
                   help="wrap each run in cProfile and dump .pstats + "
                        "a top-function report")
    p.add_argument("--top", type=int, default=25,
                   help="functions shown in the cProfile report")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("names", nargs="*", help="figure ids (fig2..fig14, table2) or 'all'")
    p.add_argument("--out", help="directory for rendered outputs")
    _add_figures_ctx(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("summary", help="paper-vs-measured markdown")
    p.add_argument("names", nargs="*", help="figure subset (default: all)")
    p.add_argument("--out", help="output markdown path")
    _add_figures_ctx(p)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("report", help="HTML chart report of the figures")
    p.add_argument("--out", default="report.html")
    _add_figures_ctx(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "faults",
        help="reliability sweep under scaled fault injection",
    )
    p.add_argument("--scheme", choices=SCHEMES, default="across")
    _add_common(p)
    _add_fault_sweep(p)
    _add_parallel(p)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "endure",
        help="GC-policy endurance zoo (policy x fault-intensity sweep)",
    )
    p.add_argument("--scheme", choices=SCHEMES, default="across")
    p.add_argument("--gc-policies", action="append", metavar="P1[,P2,...]",
                   help="GC policies to sweep (repeatable, comma-"
                        "separated, 'all' = the whole zoo; default: all)")
    _add_common(p)
    _add_fault_sweep(p)
    _add_parallel(p)
    p.set_defaults(func=cmd_endure)

    p = sub.add_parser(
        "check",
        help="differential replay & invariant checking (repro.check)",
    )
    p.add_argument("--fuzz", type=int, metavar="N",
                   help="run N seeded random-workload fuzz cases on a "
                        "tiny geometry instead of a point run")
    p.add_argument("--seed", type=int, default=2023,
                   help="base seed of the fuzz campaign")
    p.add_argument("--requests", type=int, default=400,
                   help="requests per fuzz case")
    p.add_argument("--scheme", dest="schemes", action="append",
                   choices=SCHEMES,
                   help="scheme(s) to check (repeatable; default: all)")
    p.add_argument("--every", type=int, default=256,
                   help="invariant-sweep cadence in requests")
    p.add_argument("--out", default="check-out",
                   help="directory for counterexample dumps")
    p.add_argument("--replay", metavar="FILE",
                   help="re-run a dumped counterexample JSON and exit")
    p.add_argument("--skip-cache", action="store_true",
                   help="skip the cache-on vs cache-off comparison")
    p.add_argument("--skip-jobs", action="store_true",
                   help="skip the --jobs 1 vs --jobs N comparison")
    p.add_argument("--attribution", action="store_true",
                   help="run every leg with latency attribution on, "
                        "arming the per-request phase-conservation "
                        "invariant")
    p.add_argument("--frontend", action="store_true",
                   help="also replay each scheme through the "
                        "event-driven frontend (hazard-aware NCQ) and "
                        "compare its oracle read digest against the "
                        "sequential leg")
    p.add_argument("--qd-sweep", metavar="Q1,Q2,...",
                   help="with --frontend: additionally replay at each "
                        "listed host queue depth (point runs only), "
                        "e.g. 1,8,32")
    p.add_argument("--gc-policies", action="append", metavar="P1[,P2,...]",
                   help="also replay each scheme under the listed GC "
                        "policies (repeatable, comma-separated, 'all' = "
                        "the whole zoo) and compare oracle read digests "
                        "against the default-policy leg")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "serve",
        help="HTTP simulation service over a shared result store",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 = OS-assigned)")
    p.add_argument("--store", default="serve-store",
                   help="ResultStore directory answering repeat requests")
    p.add_argument("--device", choices=SSDConfig.PRESETS, default="bench",
                   help="device preset for requests that name none")
    p.add_argument("--jobs", type=int, default=1,
                   help="process-pool width for cache-missing runs")
    p.add_argument("--once", metavar="FILE",
                   help="handle one JSON request from FILE ('-' = stdin), "
                        "print the response and exit")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("lint", help="sanity-check trace files")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("systor", "msr", "blktrace"),
                   default="systor")
    p.add_argument("--page-size-kib", type=int, default=8)
    p.add_argument("--check-range", action="store_true",
                   help="also check offsets against the bench device")
    p.set_defaults(func=cmd_lint)
    return ap


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
