"""Metric exporters: Prometheus text exposition and JSON snapshots.

``prometheus_text`` renders :class:`~repro.metrics.counters.FlashOpCounters`
(plus optional sampler gauges and per-chip utilisation) in the
Prometheus text exposition format, so a run's final state — or a
long-lived service wrapping the simulator — can be scraped or diffed
with standard tooling.  ``attribution_prometheus_text`` renders the
latency-attribution sketches (:mod:`repro.obs.attribution`) as native
Prometheus histogram families.  ``json_snapshot`` captures the same
data as a plain JSON-serialisable dict including the full sampler time
series.

Exposition-format contract (the lint test pins it): every metric family
gets exactly one ``# HELP`` and one ``# TYPE`` line, emitted before its
first sample; label values are escaped per the spec (backslash, quote,
newline).  All metric names carry the ``repro_`` prefix; counters end
in ``_total`` per Prometheus naming conventions.
"""

from __future__ import annotations

import json

from ..metrics.counters import FlashOpCounters, OpKind

_HELP = {
    "repro_flash_reads_total": "Flash page reads by cause",
    "repro_flash_writes_total": "Flash page programs by cause",
    "repro_flash_erases_total": "Block erases (measured run)",
    "repro_dram_accesses_total": "DRAM mapping-structure touches",
    "repro_cache_hits_total": "Write-buffer read hits served from DRAM",
    "repro_update_reads_total": "RMW-induced flash reads",
    "repro_merged_reads_total": "Across-FTL merged-read extra page reads",
    "repro_gc_stalls_total": "GC passes that found no space-freeing victim",
    # media reliability (repro.faults; all zero with injection off)
    "repro_read_retries_total": "Read-retry steps walked past the ECC budget",
    "repro_uncorrectable_reads_total":
        "Reads whose errors survived the whole retry table",
    "repro_program_fails_total": "Program-status failures (reprogram pulses)",
    "repro_erase_fails_total": "Erase-status failures (block retired)",
    "repro_bad_blocks_total": "Blocks retired as bad",
    "repro_fault_relocations_total":
        "Valid pages relocated off retiring blocks",
}

#: HELP text for the sampler-derived gauge families (anything not
#: listed falls back to a generic line so every family still gets one)
_GAUGE_HELP = {
    "repro_queue_depth": "Outstanding host requests at the last sample",
    "repro_free_blocks": "Erased blocks across all planes",
    "repro_amt_occupancy": "Live across-area mapping-table entries",
    "repro_chip_utilization": "Per-chip busy fraction since start of run",
}


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


class _Exposition:
    """Line builder enforcing one HELP/TYPE pair per metric family."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._families: set[str] = set()

    def family(self, name: str, mtype: str, help_text: str) -> None:
        if name in self._families:
            return
        self._families.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {mtype}")

    def sample(self, name: str, labels: dict | None, value) -> None:
        self.lines.append(f"{name}{_labels(labels)} {value}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def prometheus_text(
    counters: FlashOpCounters,
    samplers=None,
    extra_gauges: dict[str, float] | None = None,
) -> str:
    """Render counters (and optional sampler state) as Prometheus text.

    ``samplers`` is a :class:`~repro.obs.samplers.SamplerSet` (or None);
    its gauge samplers export their latest value and any chip-utilisation
    sampler exports one ``repro_chip_utilization`` gauge per chip.
    """
    exp = _Exposition()

    def counter(name: str, value: int, labels: dict | None = None) -> None:
        exp.family(name, "counter", _HELP.get(name, name))
        exp.sample(name, labels, value)

    for kind in OpKind:
        counter("repro_flash_reads_total", counters.reads[kind],
                {"kind": kind.value})
    for kind in OpKind:
        counter("repro_flash_writes_total", counters.writes[kind],
                {"kind": kind.value})
    counter("repro_flash_erases_total", counters.erases)
    counter("repro_dram_accesses_total", counters.dram_accesses)
    counter("repro_cache_hits_total", counters.cache_hits)
    counter("repro_update_reads_total", counters.update_reads)
    counter("repro_merged_reads_total", counters.merged_reads)
    counter("repro_gc_stalls_total", counters.gc_stalls)
    counter("repro_read_retries_total", counters.read_retries)
    counter("repro_uncorrectable_reads_total", counters.uncorrectable_reads)
    counter("repro_program_fails_total", counters.program_fails)
    counter("repro_erase_fails_total", counters.erase_fails)
    counter("repro_bad_blocks_total", counters.bad_blocks)
    counter("repro_fault_relocations_total", counters.fault_relocations)

    gauges: dict[str, float] = {}
    chip_util = None
    if samplers is not None:
        gauges.update(samplers.latest_gauges())
        for s in samplers.samplers:
            if getattr(s, "name", "") == "chip_utilization":
                chip_util = s
    if extra_gauges:
        gauges.update(extra_gauges)
    for name, value in sorted(gauges.items()):
        metric = f"repro_{name}"
        exp.family(
            metric, "gauge",
            _GAUGE_HELP.get(metric, f"Sampled gauge {name}"),
        )
        exp.sample(metric, None, value)
    if chip_util is not None and chip_util.latest() is not None:
        exp.family(
            "repro_chip_utilization", "gauge",
            _GAUGE_HELP["repro_chip_utilization"],
        )
        for chip, util in enumerate(chip_util.latest()):
            exp.sample("repro_chip_utilization", {"chip": chip}, util)
    return exp.text()


def attribution_prometheus_text(recorder) -> str:
    """Render an :class:`~repro.obs.attribution.AttributionRecorder`'s
    sketches as Prometheus *histogram* families.

    One family, ``repro_request_phase_latency_ms``, labelled by request
    ``class`` and ``phase`` (the pseudo-phase ``total`` carries the
    end-to-end request latency); cumulative ``_bucket`` samples use the
    sketches' logarithmic upper bounds, terminated by ``+Inf``, plus
    the conventional ``_sum`` and ``_count``.  Request counts per class
    export as ``repro_requests_total``.
    """
    exp = _Exposition()
    name = "repro_request_phase_latency_ms"
    exp.family(
        name, "histogram",
        "Critical-path latency attribution by request class and phase",
    )
    for (cls, phase), hist in sorted(recorder.sketches.items()):
        base = {"class": cls, "phase": phase}
        cum = 0
        for _lo, hi, count in hist.bucket_bounds():
            cum += count
            exp.sample(
                f"{name}_bucket", {**base, "le": f"{hi:.6g}"}, cum
            )
        exp.sample(f"{name}_bucket", {**base, "le": "+Inf"}, hist.count)
        exp.sample(f"{name}_sum", base, hist.total)
        exp.sample(f"{name}_count", base, hist.count)
    exp.family(
        "repro_requests_total", "counter",
        "Completed host requests by attribution class",
    )
    for cls, n in sorted(recorder.class_counts.items()):
        exp.sample("repro_requests_total", {"class": cls}, n)
    return exp.text()


#: `extra` value types json_snapshot accepts as-is; numpy scalars are
#: converted via .item() first, everything else must survive json.dumps
_EXTRA_TYPES = (int, float, str, bool, type(None), list, dict)


def json_snapshot(
    counters: FlashOpCounters,
    samplers=None,
    extra: dict | None = None,
) -> dict:
    """JSON-serialisable snapshot: counters + full sampler series.

    ``extra`` values must be JSON-serialisable: ``int``, ``float``,
    ``str``, ``bool``, ``None``, or ``list``/``dict`` compositions of
    those.  Numpy scalars are converted via their ``.item()`` method.
    Anything else raises :class:`TypeError` naming the offending key —
    silently dropping a value would corrupt archived snapshots.
    """
    snap: dict = {"counters": counters.snapshot()}
    if samplers is not None:
        snap["series"] = samplers.series()
    if extra:
        cleaned = {}
        for k, v in extra.items():
            item = getattr(v, "item", None)
            if item is not None and not isinstance(v, _EXTRA_TYPES):
                # numpy scalar (np.int64 etc.): unwrap to the Python
                # type; a multi-element ndarray raises here and falls
                # through to the TypeError below
                try:
                    v = item()
                except (TypeError, ValueError):
                    pass
            if isinstance(v, (list, dict)):
                try:
                    json.dumps(v)
                except (TypeError, ValueError) as exc:
                    raise TypeError(
                        f"json_snapshot extra[{k!r}] is not "
                        f"JSON-serialisable: {exc}"
                    ) from exc
            elif not isinstance(v, _EXTRA_TYPES):
                raise TypeError(
                    f"json_snapshot extra[{k!r}] has unsupported type "
                    f"{type(v).__name__}; accepted: int, float, str, "
                    f"bool, None, list, dict (numpy scalars are "
                    f"unwrapped automatically)"
                )
            cleaned[k] = v
        snap["extra"] = cleaned
    return snap


def write_prometheus(path, counters, samplers=None, extra_gauges=None) -> None:
    """Write :func:`prometheus_text` output to ``path``."""
    with open(path, "w") as fh:
        fh.write(prometheus_text(counters, samplers, extra_gauges))


def write_json_snapshot(path, counters, samplers=None, extra=None) -> None:
    """Write :func:`json_snapshot` output to ``path`` as JSON."""
    with open(path, "w") as fh:
        json.dump(json_snapshot(counters, samplers, extra), fh, indent=1)


#: ``/stats`` section -> metric-name prefix (service counters already
#: end in ``_total``; every other section's keys are bare)
_STATS_SECTIONS = (
    ("service", "repro_serve"),
    ("store", "repro_store"),
    ("pool", "repro_pool"),
    ("plans", "repro_plans"),
    ("images", "repro_images"),
)

#: the point-in-time values; everything else in ``/stats`` is monotonic
_STATS_GAUGES = {
    "repro_store_inflight": "Run keys currently being simulated",
    "repro_store_memory_entries": "Decoded reports held by the store's memory tier",
    "repro_store_memory_bytes": "File bytes of the reports held in the store's memory tier",
    "repro_pool_workers": "Live worker processes of the service's pool",
    "repro_plans_entries": "Composed fleet plans held by the plan cache",
}

_STATS_HELP = {
    "repro_serve_requests_total": "HTTP simulation requests handled",
    "repro_serve_sweeps_total": "Sweep-kind requests handled",
    "repro_serve_fleets_total": "Fleet-kind requests handled",
    "repro_serve_errors_total": "Requests rejected with an error response",
    "repro_serve_runs_executed_total": "Simulations actually executed",
    "repro_serve_runs_cached_total": "Runs answered from the result store",
    "repro_serve_runs_failed_total": "Runs that raised in a worker",
    "repro_store_hits_total": "Result-store lookups that found a report",
    "repro_store_misses_total": "Result-store lookups that found nothing",
    "repro_store_puts_total": "Reports persisted to the result store",
    "repro_store_coalesced_total": "Runs served after awaiting an in-flight twin",
    "repro_store_memory_hits_total": "Result-store hits answered from decoded reports in memory",
    "repro_pool_spawns_total": "Worker pools started",
    "repro_pool_tasks_total": "Runs submitted to the worker pool",
    "repro_pool_rebuilds_total": "Worker pools replaced after a worker died",
    "repro_plans_hits_total": "Fleet requests whose shard plans were cached",
    "repro_plans_misses_total": "Fleet requests that composed their shard plans",
    "repro_images_built_total": "Runs that aged their device and stored its image",
    "repro_images_memory_total": "Runs whose aged device came from an in-process image",
    "repro_images_disk_total": "Runs whose aged device came from an on-disk image",
    "repro_images_bypass_total": "Runs outside the image cache (no aging, or an excluded mode)",
}


def stats_prometheus_text(stats: dict) -> str:
    """Render :meth:`repro.fleet.service.FleetService.stats` output
    (``{"service": {...}, "store": {...}, "pool": {...}, "plans":
    {...}, "images": {...}}``) for ``GET /metrics``.

    Same exposition contract as :func:`prometheus_text`: ``repro_``
    prefix, counters end in ``_total``, one HELP/TYPE pair per family.
    ``store.inflight``, ``store.memory_entries``, ``store.memory_bytes``,
    ``pool.workers`` and ``plans.entries`` are the gauges.
    """
    exp = _Exposition()
    for section, prefix in _STATS_SECTIONS:
        for k, v in stats.get(section, {}).items():
            name = f"{prefix}_{k}"
            if name in _STATS_GAUGES:
                exp.family(name, "gauge", _STATS_GAUGES[name])
            else:
                if not name.endswith("_total"):
                    name += "_total"
                exp.family(name, "counter", _STATS_HELP.get(name, k))
            exp.sample(name, None, v)
    return exp.text()
