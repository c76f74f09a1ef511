"""Per-tenant QoS recovered from shard reports.

A shard run configured with the plan's ``boundaries`` as
``SimConfig.qos_streams`` produces a ``report.streams`` section whose
stream *i* is exactly tenant ``plan.tenant_ids[i]`` (the composer gave
each tenant slice *i* of the shard's LBA space).  This module folds
those per-stream :class:`~repro.metrics.sketch.LogHistogram` sketches
back into per-tenant QoS rows — throughput and tail latency — without
touching the simulator again, which is what lets a *cached* shard
report answer a fleet QoS request byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ReproError
from ..metrics.report import SimulationReport
from ..metrics.sketch import LogHistogram
from .workload import ShardPlan


@dataclass(frozen=True)
class TenantQos:
    """One tenant's service quality over a fleet run."""

    tenant_id: int
    shard_id: int
    requests: int
    reads: int
    writes: int
    trims: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    #: requests per second over the shard's replay span
    throughput_rps: float

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serve responses."""
        # every field is a scalar: a shallow copy equals asdict(), whose
        # recursive deep copy a fleet reply would pay for every tenant
        return dict(vars(self))


def _tenant_row(
    plan: ShardPlan,
    stream_idx: int,
    tenant_id: int,
    doc: dict | None,
    span_ms: float,
) -> TenantQos:
    if doc is None:
        # tenant issued requests but none were logged in its stream —
        # only possible for a zero-request stream, report it as idle
        return TenantQos(
            tenant_id, plan.shard_id, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0
        )
    hist = LogHistogram.from_dict(doc["hist"])
    q = hist.quantiles((0.5, 0.99, 0.999))
    rps = (
        doc["requests"] / (span_ms / 1000.0) if span_ms > 0 else 0.0
    )
    return TenantQos(
        tenant_id=tenant_id,
        shard_id=plan.shard_id,
        requests=doc["requests"],
        reads=doc["reads"],
        writes=doc["writes"],
        trims=doc["trims"],
        mean_ms=hist.mean,
        p50_ms=q["p50"],
        p99_ms=q["p99"],
        p999_ms=q["p99.9"],
        throughput_rps=rps,
    )


def aggregate_qos(
    plans: Sequence[ShardPlan],
    reports: Sequence[SimulationReport | None],
) -> dict[int, TenantQos]:
    """Fold shard reports into ``{tenant_id: TenantQos}``.

    ``plans`` and ``reports`` are parallel (spec order); a None report
    (failed shard, ``on_error="continue"``) simply contributes no
    tenants.  A non-None report missing its ``streams`` section means
    the shard was run without the plan's ``qos_streams`` — a caller
    bug, raised loudly.
    """
    if len(plans) != len(reports):
        raise ReproError(
            f"{len(plans)} shard plans but {len(reports)} reports"
        )
    out: dict[int, TenantQos] = {}
    for plan, report in zip(plans, reports):
        if report is None or not plan.tenant_ids:
            continue
        if report.streams is None:
            raise ReproError(
                f"shard {plan.shard_id} report has no streams section; "
                "was the run configured with the plan's qos_streams?"
            )
        streams = report.streams["streams"]
        span_ms = plan.trace.duration_ms()
        for i, tenant_id in enumerate(plan.tenant_ids):
            out[tenant_id] = _tenant_row(
                plan, i, tenant_id, streams.get(str(i)), span_ms
            )
    return out


def fleet_summary(qos: dict[int, TenantQos]) -> dict:
    """Fleet-level rollup of the per-tenant rows: totals plus the
    worst-tenant tails (the number an operator alarms on)."""
    if not qos:
        return {
            "tenants": 0,
            "requests": 0,
            "worst_p99_ms": 0.0,
            "worst_p999_ms": 0.0,
            "worst_p99_tenant": None,
            "mean_ms": 0.0,
        }
    rows = list(qos.values())
    total = sum(r.requests for r in rows)
    worst = max(rows, key=lambda r: r.p99_ms)
    mean = (
        sum(r.mean_ms * r.requests for r in rows) / total if total else 0.0
    )
    return {
        "tenants": len(rows),
        "requests": total,
        "worst_p99_ms": worst.p99_ms,
        "worst_p999_ms": max(r.p999_ms for r in rows),
        "worst_p99_tenant": worst.tenant_id,
        "mean_ms": mean,
    }
