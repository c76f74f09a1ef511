"""Run reports, normalisation and ASCII table rendering.

:class:`SimulationReport` is what :func:`repro.experiments.runner.run_trace`
returns — everything needed to rebuild each paper figure.  The paper
presents results *normalised to the baseline FTL*; :func:`normalize`
implements exactly that, and :func:`render_table` prints the aligned
tables used by the benchmark harness and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .counters import FlashOpCounters
from .latency import LatencyRecorder


@dataclass
class SimulationReport:
    """Everything measured in one (trace, scheme) simulation run."""

    scheme: str
    trace_name: str
    requests: int
    counters: FlashOpCounters
    latency: LatencyRecorder
    #: Scheme-specific statistics, e.g. Across-FTL write-class counts
    #: (Fig. 8) or MRSM region metrics.
    extra: dict[str, Any] = field(default_factory=dict)
    #: Mapping-table footprint in bytes (Fig. 12a).
    mapping_table_bytes: int = 0
    wall_seconds: float = 0.0
    #: Latency-attribution aggregate
    #: (:meth:`repro.obs.attribution.AttributionRecorder.summary`):
    #: per-class request counts, per-phase summed ms, tail quantiles and
    #: the serialised :class:`~repro.metrics.sketch.LogHistogram`
    #: sketches.  None unless ``observability.attribution`` was on —
    #: and then absent from :meth:`to_dict` output, so disabled runs
    #: keep byte-identical report digests.
    attribution: dict | None = None
    #: Per-stream QoS summary (``SimConfig.qos_streams``): the stream
    #: boundaries plus, per occupied stream, request counts by op and a
    #: serialised :class:`~repro.metrics.sketch.LogHistogram` latency
    #: sketch.  The fleet layer reads this to recover per-tenant QoS
    #: from a cached shard report.  Same digest discipline as
    #: ``attribution``: None unless the feature was on, and then absent
    #: from :meth:`to_dict` output.
    streams: dict | None = None
    #: Host-side facts about how the run was produced — ``age_s`` (wall
    #: seconds in ``Simulator.age_device``) and ``image`` (where the
    #: aged device came from: ``built``, ``memory``, ``disk`` or
    #: ``bypass``).  Not a result: excluded from equality and from
    #: :meth:`to_dict`, so digests and stored reports never see it; it
    #: does survive the worker pickle, which is how a sweep tallies it.
    host: dict = field(default_factory=dict, compare=False, repr=False)

    # -- headline metrics used by the figures ----------------------------
    @property
    def total_io_ms(self) -> float:
        """Overall I/O time (Fig. 9c / Fig. 14a)."""
        return self.latency.total_ms

    @property
    def mean_read_ms(self) -> float:
        return self.latency.mean_read_ms

    @property
    def mean_write_ms(self) -> float:
        return self.latency.mean_write_ms

    @property
    def erase_count(self) -> int:
        return self.counters.erases

    @property
    def cache_hits(self) -> int:
        """Write-buffer read hits served at DRAM speed."""
        return self.counters.cache_hits

    @property
    def gc_stalls(self) -> int:
        """GC passes that freed nothing (allocation-starvation precursor)."""
        return self.counters.gc_stalls

    @property
    def read_retries(self) -> int:
        """Read-retry steps walked (zero unless :mod:`repro.faults` on)."""
        return self.counters.read_retries

    @property
    def bad_blocks(self) -> int:
        """Blocks retired as bad (zero unless :mod:`repro.faults` on)."""
        return self.counters.bad_blocks

    def to_dict(self) -> dict:
        """JSON-serialisable dump of the run (for archiving sweeps).

        Carries the *full* state — counters with per-kind splits and the
        per-class latency sample distributions — so :meth:`from_dict`
        rebuilds a report equal to the original and archived sweeps can
        regenerate every figure.  The ``mean_read_ms``/``mean_write_ms``
        convenience keys stay for readers of older archives.
        """
        lat = self.latency
        latency = lat.to_dict()
        latency["mean_read_ms"] = lat.mean_read_ms
        latency["mean_write_ms"] = lat.mean_write_ms
        d = {
            "scheme": self.scheme,
            "trace": self.trace_name,
            "requests": self.requests,
            "counters": self.counters.snapshot(),
            "latency": latency,
            "mapping_table_bytes": self.mapping_table_bytes,
            "extra": {
                k: v
                for k, v in self.extra.items()
                if isinstance(v, (int, float, str, bool))
            },
            "wall_seconds": self.wall_seconds,
        }
        # emitted only when attribution ran: runs with observability
        # off must keep byte-identical dumps (bench-gate digests)
        if self.attribution is not None:
            d["attribution"] = self.attribution
        if self.streams is not None:
            d["streams"] = self.streams
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationReport":
        """Rebuild a report from :meth:`to_dict` output (round trip)."""
        return cls(
            scheme=d["scheme"],
            trace_name=d["trace"],
            requests=int(d["requests"]),
            counters=FlashOpCounters.from_snapshot(d.get("counters", {})),
            latency=LatencyRecorder.from_dict(d.get("latency", {})),
            extra=dict(d.get("extra", {})),
            mapping_table_bytes=int(d.get("mapping_table_bytes", 0)),
            wall_seconds=float(d.get("wall_seconds", 0.0)),
            attribution=d.get("attribution"),
            streams=d.get("streams"),
        )

    def to_json(self, **kw) -> str:
        """JSON string of :meth:`to_dict` (kwargs go to json.dumps)."""
        import json

        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_json(cls, text: str) -> "SimulationReport":
        """Inverse of :meth:`to_json`."""
        import json

        return cls.from_dict(json.loads(text))

    def metric(self, name: str) -> float:
        """Look up a metric by dotted name (used by generic benches)."""
        direct = {
            "total_io_ms": self.total_io_ms,
            "mean_read_ms": self.mean_read_ms,
            "mean_write_ms": self.mean_write_ms,
            "erase_count": float(self.erase_count),
            "flash_reads": float(self.counters.total_reads),
            "flash_writes": float(self.counters.total_writes),
            "map_reads": float(self.counters.map_reads),
            "map_writes": float(self.counters.map_writes),
            "dram_accesses": float(self.counters.dram_accesses),
            "mapping_table_bytes": float(self.mapping_table_bytes),
            "update_reads": float(self.counters.update_reads),
            "cache_hits": float(self.counters.cache_hits),
            "gc_stalls": float(self.counters.gc_stalls),
            "read_retries": float(self.counters.read_retries),
            "uncorrectable_reads": float(self.counters.uncorrectable_reads),
            "program_fails": float(self.counters.program_fails),
            "erase_fails": float(self.counters.erase_fails),
            "bad_blocks": float(self.counters.bad_blocks),
            "fault_relocations": float(self.counters.fault_relocations),
        }
        if name in direct:
            return direct[name]
        if name in self.extra:
            return float(self.extra[name])
        raise KeyError(f"unknown metric {name!r}")


def normalize(
    values: Mapping[str, float], baseline: str = "ftl"
) -> dict[str, float]:
    """Divide every scheme's value by the baseline scheme's value.

    This is the presentation used by Figs. 9, 10, 11, 12b and 14.  A
    zero baseline yields 0 for zero values and ``inf`` otherwise, which
    keeps degenerate unit-test workloads from raising.
    """
    base = values[baseline]
    out = {}
    for k, v in values.items():
        if base == 0:
            out[k] = 0.0 if v == 0 else float("inf")
        else:
            out[k] = v / base
    return out


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Mapping[str, Sequence[Any]],
    float_fmt: str = "{:.3f}",
) -> str:
    """Render an aligned ASCII table.

    ``rows`` maps a row label (e.g. a trace name) to one value per
    column.  Numbers are formatted with ``float_fmt``; everything else
    with ``str``.
    """

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    header = [""] + list(columns)
    body = [[label] + [fmt(v) for v in vals] for label, vals in rows.items()]
    widths = [
        max(len(r[i]) for r in [header] + body) for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, the right average for normalised ratios."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    prod = 1.0
    for v in vals:
        prod *= v
    return prod ** (1.0 / len(vals))
