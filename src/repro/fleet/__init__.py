"""Fleet-scale serving layer: N sharded devices, multi-tenant streams.

The single-device simulator answers "how does one SSD behave under one
trace".  This package models the level above it — the deployment a
storage service actually runs: a *fleet* of independent device shards,
each replaying the merged streams of many tenants whose popularity is
Zipf-skewed, with per-tenant QoS recovered from each shard's per-stream
latency sketches (``SimConfig.qos_streams``).  Because every shard is
an ordinary :class:`~repro.experiments.parallel.RunSpec`, fleet runs
fan out through the hardened :func:`~repro.experiments.parallel.execute_runs`
and repeated requests are answered straight from the content-hash
:class:`~repro.experiments.parallel.ResultStore` — the property the
``repro serve`` loop (:mod:`repro.fleet.service`) is built on.

Modules:

* :mod:`repro.fleet.config` — :class:`FleetConfig`, the fleet shape.
* :mod:`repro.fleet.workload` — the multi-tenant composer: Zipf
  popularity, deterministic shard routing, per-shard merged traces,
  and the bounded :class:`PlanCache` in front of the composer.
* :mod:`repro.fleet.qos` — per-tenant QoS aggregation over the shard
  reports' stream sketches.
* :mod:`repro.fleet.service` — the request handler + threaded HTTP
  server behind ``repro serve``.
"""

from .config import FleetConfig
from .qos import TenantQos, aggregate_qos, fleet_summary
from .service import FleetService, make_server, serve_forever, start_server_thread
from .workload import (
    PlanCache,
    ShardPlan,
    compose_shards,
    shard_of,
    tenant_weights,
)

__all__ = [
    "FleetConfig",
    "PlanCache",
    "ShardPlan",
    "TenantQos",
    "FleetService",
    "aggregate_qos",
    "compose_shards",
    "fleet_summary",
    "make_server",
    "serve_forever",
    "shard_of",
    "start_server_thread",
    "tenant_weights",
]
