"""Differential replay: one trace, many engines, one answer.

Three comparisons, each catching a failure class the aggregate bench
digests cannot:

* **Cross-scheme** — ``ftl``, ``mrsm`` and ``across`` implement the
  same block-device contract, so replaying one trace with the sector
  oracle on must verify every read *and* yield the same oracle-stamped
  read contents (``check_read_digest``) under all three mappings.
* **Cache on/off** — the DRAM write buffer is a transparent cache;
  disabling it must not change a single returned sector version.
* **jobs 1 vs N** — fanning runs out across worker processes
  (:func:`repro.experiments.parallel.execute_runs`) must produce
  bit-identical reports (canonical digest, wall time excluded) to the
  same runs executed in-process.
* **Frontend on/off, any queue depth** (opt-in) — the event-driven
  frontend (:mod:`repro.sim.frontend`) reorders execution but its
  hazard rules pin data semantics to arrival order, so its oracle read
  digest must equal the sequential replay's at every host queue depth.
* **GC policy zoo** (opt-in) — a garbage-collection policy
  (:mod:`repro.ftl.gc_policy`) reshuffles *where* data lives and *when*
  it migrates, never *what* a read returns: replaying under any policy
  must yield the default-policy leg's oracle read digest.
* **Aged-device image** — a device filled from its cached image
  (:mod:`repro.sim.image`) must be the aged device, field by field of
  the device-state seam, and replay to the report digest of the run
  that aged for itself.  The oracle and the checker keep state outside
  the seam, so this one leg runs without them (and only on an aged
  configuration).

Every other replay runs with the runtime invariant checker enabled, so
a sweep violation or oracle mismatch inside any leg is reported as a
failure too.  :func:`~repro.check.fuzz.run_fuzz` feeds this harness
random workloads; a plain :func:`differential_replay` call is the
point-run entry (``repro check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import SCHEMES, SimConfig, SSDConfig
from ..errors import ReproError
from ..sim.oracle import OracleMismatch
from ..traces.model import Trace


@dataclass
class ReplayFailure:
    """One divergence or in-run violation found by the harness."""

    #: "invariant" | "oracle" | "error" | "scheme-divergence" |
    #: "cache-divergence" | "jobs-divergence" | "frontend-divergence" |
    #: "qd-divergence" | "policy-divergence" | "image-divergence"
    kind: str
    #: scheme the failure occurred in (None for cross-run comparisons)
    scheme: str | None
    detail: str


@dataclass
class DifferentialResult:
    """Outcome of one :func:`differential_replay` call."""

    trace_name: str
    failures: list[ReplayFailure] = field(default_factory=list)
    #: per-scheme oracle-verified read-content digests (cache-on leg)
    read_digests: dict[str, str] = field(default_factory=dict)
    #: per-scheme reports of the cache-on leg (for callers that want
    #: counters / latency detail alongside the verdict)
    reports: dict = field(default_factory=dict)
    #: the comparisons run beside the cross-scheme one, in order
    #: ("cache", "frontend", "qd=N", "gc=<policy>", "jobs", "image")
    legs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """One line per failure (or an all-clear naming the legs)."""
        if self.ok:
            agree = f"{len(self.reports)} schemes agree"
            if self.legs:
                agree += f"; legs: {', '.join(self.legs)}"
            return f"{self.trace_name}: ok ({agree})"
        lines = [f"{self.trace_name}: {len(self.failures)} failure(s)"]
        for f in self.failures:
            where = f" [{f.scheme}]" if f.scheme else ""
            lines.append(f"  {f.kind}{where}: {f.detail}")
        return "\n".join(lines)


def checked_sim_cfg(
    base: SimConfig | None = None,
    *,
    every: int = 256,
    attribution: bool = False,
) -> SimConfig:
    """The harness's run options: ``base`` with the sector oracle on,
    invariant sweeps every ``every`` requests, and progress off.

    ``attribution`` additionally turns on latency attribution
    (:mod:`repro.obs.attribution`), which arms the per-request
    phase-conservation invariant — every replayed request then proves
    its phase latencies sum to its recorded latency."""
    cfg = base if base is not None else SimConfig()
    cfg = replace(cfg, check_oracle=True, progress=False)
    cfg = cfg.replace_check(enabled=True, every=every)
    if attribution:
        cfg = cfg.replace_observability(enabled=True, attribution=True)
    return cfg


def _checked_run(scheme: str, trace: Trace, cfg: SSDConfig, sim_cfg: SimConfig):
    """Run one leg; returns (report | None, ReplayFailure | None)."""
    from ..experiments.runner import run_trace

    try:
        return run_trace(scheme, trace, cfg, sim_cfg), None
    except OracleMismatch as exc:
        return None, ReplayFailure("oracle", scheme, str(exc))
    except ReproError as exc:
        kind = (
            "invariant"
            if type(exc).__name__ in ("InvariantViolation", "MappingError",
                                      "FlashProtocolError")
            else "error"
        )
        return None, ReplayFailure(
            kind, scheme, f"{type(exc).__name__}: {exc}"
        )


def differential_replay(
    trace: Trace,
    cfg: SSDConfig,
    sim_cfg: SimConfig | None = None,
    *,
    schemes=SCHEMES,
    every: int = 256,
    compare_cache: bool = True,
    compare_jobs: bool = False,
    jobs: int = 2,
    attribution: bool = False,
    frontend: bool = False,
    qd_sweep: tuple = (),
    policies: tuple = (),
) -> DifferentialResult:
    """Replay ``trace`` across ``schemes`` and cross-check the results.

    All legs run with the oracle and the invariant checker on.  When
    ``compare_cache`` and the device has a write buffer, each scheme is
    additionally replayed with the buffer disabled and the read
    contents compared.  When ``compare_jobs``, the scheme runs are also
    executed through the ``jobs``-worker process pool and the canonical
    report digests compared against the in-process runs.
    ``attribution`` arms the per-request phase-conservation invariant
    on every leg (see :func:`checked_sim_cfg`).

    ``frontend`` adds, per scheme, a replay with the event-driven
    frontend enabled (:mod:`repro.sim.frontend`): its hazard rules must
    reproduce arrival semantics, so the oracle read digest must match
    the sequential leg exactly ("frontend-divergence" otherwise).
    ``qd_sweep`` (implies the frontend legs) additionally replays at
    each listed host queue depth — reordering freedom may change every
    latency, but never a returned sector version ("qd-divergence").

    ``policies`` adds, per scheme, one replay per listed GC policy
    (:data:`repro.config.GC_POLICIES` names): GC decisions move data
    and shape wear but must never change returned sector versions, so
    each policy leg's oracle read digest must match the default-policy
    leg exactly ("policy-divergence" otherwise).

    On an aged configuration the image leg (:func:`_compare_image`)
    runs too, over the same schemes, policies and replay loops
    ("image-divergence").
    """
    base_sim_cfg = sim_cfg if sim_cfg is not None else SimConfig()
    sim_cfg = checked_sim_cfg(sim_cfg, every=every, attribution=attribution)
    result = DifferentialResult(trace_name=trace.name)

    for scheme in schemes:
        report, failure = _checked_run(scheme, trace, cfg, sim_cfg)
        if failure is not None:
            result.failures.append(failure)
            continue
        result.reports[scheme] = report
        result.read_digests[scheme] = report.extra["check_read_digest"]

    digests = result.read_digests
    if len(digests) >= 2 and len(set(digests.values())) > 1:
        detail = ", ".join(
            f"{s}={d[:12]}" for s, d in sorted(digests.items())
        )
        result.failures.append(
            ReplayFailure(
                "scheme-divergence",
                None,
                f"read contents disagree across schemes: {detail}",
            )
        )

    if compare_cache and cfg.write_buffer_bytes > 0:
        result.legs.append("cache")
        nocache_cfg = cfg.replace(write_buffer_bytes=0)
        for scheme in schemes:
            if scheme not in digests:
                continue  # the cache-on leg already failed
            report, failure = _checked_run(scheme, trace, nocache_cfg, sim_cfg)
            if failure is not None:
                failure = replace(
                    failure, detail=f"(cache-off leg) {failure.detail}"
                )
                result.failures.append(failure)
                continue
            got = report.extra["check_read_digest"]
            if got != digests[scheme]:
                result.failures.append(
                    ReplayFailure(
                        "cache-divergence",
                        scheme,
                        f"read contents differ with the write buffer off: "
                        f"{digests[scheme][:12]} (on) vs {got[:12]} (off)",
                    )
                )

    if frontend or qd_sweep:
        result.legs += ["frontend", *(f"qd={qd}" for qd in qd_sweep)]
        fe_sim = sim_cfg.replace_frontend(enabled=True)
        for scheme in schemes:
            if scheme not in digests:
                continue  # the sequential leg already failed
            report, failure = _checked_run(scheme, trace, cfg, fe_sim)
            if failure is not None:
                result.failures.append(replace(
                    failure, detail=f"(frontend leg) {failure.detail}"
                ))
                continue
            got = report.extra["check_read_digest"]
            if got != digests[scheme]:
                result.failures.append(
                    ReplayFailure(
                        "frontend-divergence",
                        scheme,
                        f"read contents differ with the event-driven "
                        f"frontend on: {digests[scheme][:12]} (sequential) "
                        f"vs {got[:12]} (frontend)",
                    )
                )
                continue
            for qd in qd_sweep:
                qd_sim = replace(fe_sim, queue_depth=qd)
                report, failure = _checked_run(scheme, trace, cfg, qd_sim)
                if failure is not None:
                    result.failures.append(replace(
                        failure, detail=f"(frontend qd={qd} leg) "
                        f"{failure.detail}"
                    ))
                    continue
                got = report.extra["check_read_digest"]
                if got != digests[scheme]:
                    result.failures.append(
                        ReplayFailure(
                            "qd-divergence",
                            scheme,
                            f"read contents differ at queue depth {qd}: "
                            f"{digests[scheme][:12]} (sequential) vs "
                            f"{got[:12]} (frontend qd={qd})",
                        )
                    )

    result.legs += [f"gc={policy}" for policy in policies]
    for policy in policies:
        pol_cfg = cfg.replace(gc_policy=policy)
        for scheme in schemes:
            if scheme not in digests:
                continue  # the default-policy leg already failed
            report, failure = _checked_run(scheme, trace, pol_cfg, sim_cfg)
            if failure is not None:
                result.failures.append(replace(
                    failure, detail=f"(gc={policy} leg) {failure.detail}"
                ))
                continue
            got = report.extra["check_read_digest"]
            if got != digests[scheme]:
                result.failures.append(
                    ReplayFailure(
                        "policy-divergence",
                        scheme,
                        f"read contents differ under gc_policy={policy}: "
                        f"{digests[scheme][:12]} (default) vs {got[:12]} "
                        f"({policy})",
                    )
                )

    if compare_jobs and result.reports:
        result.legs.append("jobs")
        result.failures.extend(
            _compare_jobs(trace, cfg, sim_cfg, result.reports, jobs)
        )
    if base_sim_cfg.aged_used > 0.0:
        result.legs.append("image")
        result.failures.extend(
            _compare_image(
                trace, cfg, base_sim_cfg, schemes, policies,
                frontend or bool(qd_sweep),
            )
        )
    return result


def _compare_image(trace, cfg, sim_cfg, schemes, policies, frontend):
    """Age a device for real, fill a second one from the image that
    left behind, and demand the same device state and the same report
    digest — per scheme, per GC policy and per replay loop."""
    from ..experiments.benchgate import report_digest
    from ..flash.service import FlashService
    from ..ftl import make_ftl
    from ..sim.engine import Simulator
    from ..sim.image import IMAGES, device_state, state_diff

    plain = replace(sim_cfg, check_oracle=False, progress=False)
    plain = plain.replace_check(enabled=False)
    loops = [plain]
    if frontend:
        loops.append(plain.replace_frontend(enabled=True))
    failures: list[ReplayFailure] = []

    def fail(scheme, where, detail):
        failures.append(
            ReplayFailure("image-divergence", scheme, f"({where}) {detail}")
        )

    for policy in (cfg.gc_policy, *policies):
        pol_cfg = cfg.replace(gc_policy=policy)
        for loop_cfg in loops:
            loop = "frontend" if loop_cfg.frontend.enabled else "sequential"
            where = f"gc={policy}, {loop}"
            for scheme in schemes:
                IMAGES.clear()  # the reference ages for itself
                sims = []
                for _ in range(2):
                    sim = Simulator(
                        make_ftl(scheme, FlashService(pol_cfg)), loop_cfg
                    )
                    sim.age_device()
                    sims.append(sim)
                built, restored = sims
                if built.host["image"] == "bypass":
                    continue  # fault injection: outside the seam
                if restored.host["image"] != "memory":
                    fail(scheme, where, "the aged device left no image")
                    continue
                diff = state_diff(
                    device_state(built.ftl), device_state(restored.ftl)
                )
                if diff:
                    fail(scheme, where, f"restored state differs in {diff}")
                    continue
                want = report_digest(built.run(trace))
                got = report_digest(restored.run(trace))
                if want != got:
                    fail(
                        scheme, where,
                        f"report digest differs: {want[:12]} (aged) vs "
                        f"{got[:12]} (restored)",
                    )
    return failures


def _compare_jobs(trace, cfg, sim_cfg, serial_reports, jobs):
    """Replay through the process pool; any canonical-digest drift vs
    the in-process reports is a determinism failure."""
    from ..experiments.benchgate import report_digest
    from ..experiments.parallel import RunSpec, execute_runs

    schemes = list(serial_reports)
    specs = [RunSpec.make(s, trace, cfg, sim_cfg) for s in schemes]
    failures: list[ReplayFailure] = []
    try:
        outcome = execute_runs(specs, jobs=max(2, jobs))
    except ReproError as exc:
        return [
            ReplayFailure(
                "jobs-divergence", None, f"pooled replay failed: {exc}"
            )
        ]
    for scheme, pooled in zip(schemes, outcome.reports):
        want = report_digest(serial_reports[scheme])
        got = report_digest(pooled)
        if want != got:
            failures.append(
                ReplayFailure(
                    "jobs-divergence",
                    scheme,
                    f"report digest differs between --jobs 1 ({want[:12]}) "
                    f"and --jobs {max(2, jobs)} ({got[:12]})",
                )
            )
    return failures
