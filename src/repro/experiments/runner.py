"""Scheme-comparison runner with result memoisation.

``run_trace`` wires config -> flash service -> FTL -> simulator for a
single (scheme, trace) pair.  ``ExperimentContext`` memoises runs so
the figures that share the same sweep (Figs. 9, 10, 11, 12 all come
from the lun1-lun6 x {ftl, mrsm, across} sweep at 8 KiB) only simulate
once per benchmark session.  With ``jobs`` > 1 the context fans sweep
points out across a process pool, and with a ``store`` it reuses runs
persisted by earlier sessions (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..config import SCHEMES, SimConfig, SSDConfig
from ..flash.service import FlashService
from ..ftl import make_ftl
from ..metrics.report import SimulationReport
from ..sim.engine import Simulator
from ..traces.model import Trace
from ..traces.synthetic import generate_trace
from .parallel import ResultStore, RunSpec, execute_runs, run_filename


def run_trace(
    scheme: str,
    trace: Trace,
    cfg: SSDConfig,
    sim_cfg: SimConfig | None = None,
    *,
    image_dir=None,
    **ftl_kw,
) -> SimulationReport:
    """Simulate one trace under one scheme on a fresh device.

    ``image_dir`` names the on-disk tier of the aged-device image cache
    (:mod:`repro.sim.image`; ``execute_runs`` passes its store's)."""
    service = FlashService(cfg)
    ftl = make_ftl(scheme, service, **ftl_kw)
    sim = Simulator(ftl, sim_cfg, image_dir=image_dir)
    return sim.run(trace)


def compare_schemes(
    trace: Trace,
    cfg: SSDConfig,
    sim_cfg: SimConfig | None = None,
    schemes=SCHEMES,
    **ftl_kw,
) -> dict[str, SimulationReport]:
    """Run the same trace under each scheme (fresh device each time)."""
    return {s: run_trace(s, trace, cfg, sim_cfg, **ftl_kw) for s in schemes}


@dataclass
class ExperimentContext:
    """Shared state for a figure-reproduction session.

    Holds the device config, aging settings and workload scale, plus a
    memo of completed runs keyed by (trace, scheme, page size) so
    multiple figures reuse the same simulations.
    """

    cfg: SSDConfig = field(default_factory=SSDConfig.bench_default)
    sim_cfg: SimConfig = field(
        default_factory=lambda: SimConfig(
            aged_used=0.90, aged_valid=0.398, aging_style="vdi"
        )
    )
    scale: float = 0.05
    footprint_fraction: float = 0.8
    seed_base: int = 2023
    #: worker processes for sweep fan-out (1 = in-process, serial)
    jobs: int = 1
    #: persistent cross-session run cache (None = memoise in memory only)
    store: ResultStore | None = None
    #: render a sweep-level progress line while fanning out
    progress: bool = False
    #: where the aged devices of this session's executed runs came from
    #: (:attr:`SweepOutcome.images`, summed over every batch)
    images: Counter = field(default_factory=Counter)
    _traces: dict[str, Trace] = field(default_factory=dict)
    _runs: dict[tuple, SimulationReport] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def config_for_page(self, page_size_bytes: int) -> SSDConfig:
        """The device config at a given page size (Fig. 13/14 sweeps)."""
        if page_size_bytes == self.cfg.page_size_bytes:
            return self.cfg
        return self.cfg.with_page_size(page_size_bytes)

    def lun_trace(self, name: str) -> Trace:
        """The calibrated synthetic trace for a lun preset (cached)."""
        if name not in self._traces:
            from .workloads import lun_specs

            for spec in lun_specs(
                self.cfg,
                scale=self.scale,
                footprint_fraction=self.footprint_fraction,
                seed_base=self.seed_base,
            ):
                if spec.name not in self._traces:
                    self._traces[spec.name] = generate_trace(spec)
            if name not in self._traces:
                raise KeyError(f"unknown lun preset {name!r}")
        return self._traces[name]

    def lun_names(self) -> list[str]:
        """The six Table 2 preset names, in paper order."""
        from .workloads import TABLE2_SPECS

        return [row.name for row in TABLE2_SPECS]

    # ------------------------------------------------------------------
    def _memo_key(
        self, trace_name: str, scheme: str, page: int, ftl_kw: dict
    ) -> tuple:
        return (trace_name, scheme, page, tuple(sorted(ftl_kw.items())))

    def _spec(
        self, trace_name: str, scheme: str, page: int, ftl_kw: dict
    ) -> RunSpec:
        """The :class:`RunSpec` describing one memo point."""
        return RunSpec.make(
            scheme,
            self.lun_trace(trace_name),
            self.config_for_page(page),
            self.sim_cfg,
            **ftl_kw,
        )

    def run(
        self,
        trace_name: str,
        scheme: str,
        *,
        page_size_bytes: int | None = None,
        **ftl_kw,
    ) -> SimulationReport:
        """Memoised simulation of (lun trace, scheme, page size).

        Misses consult the persistent ``store`` (when configured) before
        simulating, and fresh results are written back to it.
        """
        page = page_size_bytes or self.cfg.page_size_bytes
        key = self._memo_key(trace_name, scheme, page, ftl_kw)
        if key not in self._runs:
            spec = self._spec(trace_name, scheme, page, ftl_kw)
            outcome = execute_runs([spec], jobs=1, store=self.store)
            self.images.update(outcome.images)
            self._runs[key] = outcome.reports[0]
        return self._runs[key]

    def run_many(
        self, points, *, page_size_bytes: int | None = None
    ) -> list[SimulationReport]:
        """Run a batch of (trace_name, scheme) points, fanning cache
        misses out across ``self.jobs`` worker processes.

        ``points`` may also carry a per-point page size and FTL kwargs:
        ``(trace_name, scheme)``, ``(trace_name, scheme, page)`` or
        ``(trace_name, scheme, page, ftl_kw_dict)``.  Results land in
        the in-memory memo (and the store) exactly as :meth:`run`'s do.
        """
        default_page = page_size_bytes or self.cfg.page_size_bytes
        normal = []
        for point in points:
            name, scheme, page, kw = (tuple(point) + (None, None))[:4]
            normal.append(
                (name, scheme, page or default_page, dict(kw or {}))
            )
        missing = [
            p for p in normal if self._memo_key(*p) not in self._runs
        ]
        if missing:
            specs = [self._spec(*p) for p in missing]
            outcome = execute_runs(
                specs, jobs=self.jobs, store=self.store, progress=self.progress
            )
            self.images.update(outcome.images)
            for p, report in zip(missing, outcome.reports):
                self._runs[self._memo_key(*p)] = report
        return [self._runs[self._memo_key(*p)] for p in normal]

    def prewarm(
        self,
        *,
        schemes=SCHEMES,
        page_sizes=None,
        **ftl_kw,
    ) -> int:
        """Fill the memo for every (lun, scheme, page) point in one
        parallel batch; returns how many points are now resident.

        The figure functions call :meth:`run` point by point — serially.
        Prewarming first turns a whole figure session into one fan-out.
        """
        pages = list(page_sizes) if page_sizes else [self.cfg.page_size_bytes]
        points = [
            (name, scheme, page, ftl_kw)
            for page in pages
            for name in self.lun_names()
            for scheme in schemes
        ]
        return len(self.run_many(points))

    def save_results(self, directory) -> int:
        """Archive every memoised run as JSON under ``directory``.

        Writes one ``<trace>__<scheme>__<pageKiB>[__kwargs].json`` per
        run (same naming scheme as :class:`ResultStore`, with raw kwarg
        values sanitised and colliding names de-collided by a numeric
        suffix) plus an ``index.json`` listing them; returns the number
        of runs saved.
        """
        import json
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        index = []
        used: set[str] = set()
        for (trace, scheme, page, kw), report in self._runs.items():
            stem = run_filename(trace, scheme, page, dict(kw))
            fname = f"{stem}.json"
            serial = 2
            while fname in used:
                fname = f"{stem}__{serial}.json"
                serial += 1
            used.add(fname)
            (directory / fname).write_text(report.to_json(indent=1))
            index.append(
                {
                    "file": fname,
                    "trace": trace,
                    "scheme": scheme,
                    "page_size_bytes": page,
                    "ftl_kwargs": {k: repr(v) for k, v in kw},
                }
            )
        (directory / "index.json").write_text(json.dumps(index, indent=1))
        return len(index)

    def sweep(
        self,
        *,
        schemes=SCHEMES,
        page_size_bytes: int | None = None,
        **ftl_kw,
    ) -> dict[str, dict[str, SimulationReport]]:
        """All lun traces x schemes; returns {trace: {scheme: report}}.

        The whole grid executes as one batch, so with ``jobs`` > 1 the
        18 independent simulations behind Figs. 9-12 run concurrently.
        """
        names = self.lun_names()
        points = [
            (name, s, page_size_bytes or self.cfg.page_size_bytes, ftl_kw)
            for name in names
            for s in schemes
        ]
        reports = self.run_many(points)
        it = iter(reports)
        return {
            name: {s: next(it) for s in schemes} for name in names
        }
