"""Multi-tenant workload composition: tenants → shards → traces.

Three deterministic steps, all pure functions of the
:class:`~repro.fleet.config.FleetConfig`:

1. **Popularity** (:func:`tenant_weights`): tenant request volume
   follows a Zipf law over a seeded random popularity ranking, so
   tenant 0 is not always the hottest but the same config always
   produces the same ranking.
2. **Routing** (:func:`shard_of`): ``shard_by="tenant"`` hashes the
   tenant id with ``blake2b`` — *not* Python's ``hash``, which is
   randomised per process and would route tenants differently on every
   run; ``shard_by="lba"`` bands tenants into contiguous shard ranges.
3. **Composition** (:func:`compose_shard` per shard, :func:`compose_shards`
   for all): each shard's tenants get equal page-aligned slices of the
   shard's logical space, one calibrated synthetic stream each (seeded
   per tenant), offsets shifted into their slice, and the streams
   merged by arrival time.  The slice boundaries double as the shard
   run's ``SimConfig.qos_streams``, which is how per-tenant QoS falls
   out of a single shard report (:mod:`repro.fleet.qos`).

:class:`PlanCache` keeps recently composed plans so a repeated fleet
request goes straight to its run keys without synthesising a trace.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..config import SSDConfig
from ..errors import ConfigError
from ..lru import ByteLRU
from ..traces.model import Trace
from ..traces.synthetic import SyntheticSpec, generate_trace
from ..units import sectors_per_page
from .config import FleetConfig


def tenant_weights(cfg: FleetConfig) -> np.ndarray:
    """Normalised per-tenant traffic weights (sum = 1).

    Weight of popularity rank ``r`` (1-based) is ``1 / r**zipf_s``;
    which tenant holds which rank is a seeded permutation so the hot
    tenants land on different shards for different seeds.
    """
    ranks = np.arange(1, cfg.tenants + 1, dtype=np.float64)
    w = ranks ** -cfg.zipf_s
    w /= w.sum()
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(cfg.tenants)
    out = np.empty(cfg.tenants)
    out[perm] = w
    return out


def tenant_requests(cfg: FleetConfig) -> np.ndarray:
    """Request count per tenant: ``requests_per_tenant`` is the fleet
    mean, scaled by the Zipf weight; every tenant issues at least one
    request so no stream vanishes."""
    total = cfg.requests_per_tenant * cfg.tenants
    counts = np.maximum(1, np.rint(tenant_weights(cfg) * total))
    return counts.astype(np.int64)


def shard_of(tenant_id: int, cfg: FleetConfig) -> int:
    """Deterministic shard for ``tenant_id`` (stable across processes,
    platforms and sessions)."""
    if not 0 <= tenant_id < cfg.tenants:
        raise ConfigError(
            f"tenant_id {tenant_id} outside [0, {cfg.tenants})"
        )
    if cfg.shard_by == "lba":
        # contiguous banding: tenants [0..t/s) on shard 0, etc.
        return tenant_id * cfg.shards // cfg.tenants
    digest = hashlib.blake2b(
        f"tenant-{tenant_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % cfg.shards


@dataclass(frozen=True)
class ShardPlan:
    """One shard's composed workload plus the tenant→stream mapping."""

    shard_id: int
    #: tenants on this shard, in stream-index order: tenant
    #: ``tenant_ids[i]`` owns LBA slice ``[i*slice, (i+1)*slice)`` and
    #: therefore QoS stream ``i`` of the shard report
    tenant_ids: tuple[int, ...]
    trace: Trace
    #: ``SimConfig.qos_streams`` boundaries for this shard's run
    boundaries: tuple[int, ...]
    #: sectors per tenant slice
    slice_sectors: int


def _tenant_spec(
    cfg: FleetConfig, tenant_id: int, requests: int, slice_sectors: int
) -> SyntheticSpec:
    return SyntheticSpec(
        name=f"tenant{tenant_id:05d}",
        requests=int(requests),
        write_ratio=cfg.write_ratio,
        across_ratio=cfg.across_ratio,
        mean_write_kb=cfg.mean_write_kb,
        footprint_sectors=slice_sectors,
        # distinct, deterministic stream per (fleet seed, tenant)
        seed=cfg.seed * 1_000_003 + tenant_id + 1,
        interarrival_ms=cfg.interarrival_ms,
    )


def compose_shard(
    cfg: FleetConfig, ssd_cfg: SSDConfig, shard_id: int
) -> ShardPlan:
    """Compose one shard's merged multi-tenant trace.

    Within a shard, tenants (sorted by id) get equal page-aligned
    contiguous slices of the logical space; each tenant's calibrated
    synthetic stream is generated *inside its slice* and the streams
    are merged by arrival time.  A pure function of its arguments, so
    shards compose independently — in worker processes, for the serve
    layer.  Deterministic end to end: same config → same routing → same
    traces → same run keys, which is what makes fleet requests
    cacheable in the ResultStore.
    """
    cfg.validate()
    tenants = [t for t in range(cfg.tenants) if shard_of(t, cfg) == shard_id]
    if not tenants:
        return ShardPlan(
            shard_id=shard_id,
            tenant_ids=(),
            trace=Trace.from_lists(f"fleet-s{shard_id:03d}", []),
            boundaries=(),
            slice_sectors=0,
        )
    spp = sectors_per_page(ssd_cfg.page_size_bytes)
    auto = ssd_cfg.logical_sectors // len(tenants)
    slice_sectors = (
        min(cfg.tenant_sectors, auto) if cfg.tenant_sectors else auto
    )
    slice_sectors -= slice_sectors % spp  # page-aligned slices
    if slice_sectors < spp:
        raise ConfigError(
            f"shard {shard_id}: {len(tenants)} tenants do not fit in "
            f"{ssd_cfg.logical_sectors} logical sectors (slice "
            f"smaller than one page)"
        )
    counts = tenant_requests(cfg)
    streams = []
    for i, t in enumerate(tenants):
        spec = _tenant_spec(cfg, t, counts[t], slice_sectors)
        trace = generate_trace(spec)
        streams.append(Trace(
            trace.name,
            trace.times,
            trace.ops,
            trace.offsets + i * slice_sectors,
            trace.sizes,
        ))
    merged = Trace.interleave(
        streams, name=f"fleet-s{shard_id:03d}", partitioned=False
    )
    # one boundary per tenant slice end: with n tenants that makes
    # streams 0..n-1 the tenants and stream n the (empty) remainder of
    # the logical space — so even a one-tenant shard gets a non-None
    # report.streams section
    boundaries = tuple(slice_sectors * (i + 1) for i in range(len(tenants)))
    return ShardPlan(
        shard_id=shard_id,
        tenant_ids=tuple(tenants),
        trace=merged,
        boundaries=boundaries,
        slice_sectors=slice_sectors,
    )


def compose_shards(
    cfg: FleetConfig, ssd_cfg: SSDConfig
) -> list[ShardPlan]:
    """Compose every shard's merged multi-tenant trace: each shard's
    :func:`compose_shard`, in shard order, in this process."""
    cfg.validate()
    return [compose_shard(cfg, ssd_cfg, sid) for sid in range(cfg.shards)]


#: :class:`PlanCache` bounds.  Every cached request is ~25 bytes of
#: trace columns, so the request cap — the same number as the trace
#: memo's ``_TRACE_MEMO_MAX_REQUESTS`` — holds the cache near 5 MiB
#: however the entries are sized.
_PLAN_CACHE_ENTRIES = 8
_PLAN_CACHE_MAX_REQUESTS = 200_000


class PlanCache:
    """Bounded, lock-guarded LRU in front of :func:`compose_shards`.

    Keyed on the frozen ``(FleetConfig, SSDConfig)`` pair, which is
    everything composition reads.  It caches *plans*, never results: a
    hit saves regenerating every tenant stream only to recompute run
    keys the :class:`~repro.experiments.parallel.ResultStore` already
    holds, and the store stays the one source of reports.  Bounded by
    entry count and by total requests across entries (a
    :class:`~repro.lru.ByteLRU` sized in requests); a fleet larger
    than the request cap on its own is composed and not kept.  Cached
    plans are shared between callers, so they come back as a tuple and
    their trace arrays are read-only.
    """

    def __init__(
        self,
        max_entries: int = _PLAN_CACHE_ENTRIES,
        max_requests: int = _PLAN_CACHE_MAX_REQUESTS,
    ):
        #: key -> plans, sized by their summed requests
        self._plans = ByteLRU(max_requests, max_entries)
        #: guards the hit / miss counters
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def compose(
        self, cfg: FleetConfig, ssd_cfg: SSDConfig, map: Callable | None = None
    ) -> Sequence[ShardPlan]:
        """``compose_shards(cfg, ssd_cfg)``, from the cache when an equal
        pair was composed recently.  A miss composes the shards through
        ``map`` (default: the builtin, in this thread; the serve layer
        passes :meth:`~repro.experiments.parallel.WorkerPool.map`)."""
        key = (cfg, ssd_cfg)
        plans = self._plans.get(key)
        with self._lock:
            if plans is not None:
                self._hits += 1
                return plans
            self._misses += 1
        # composed outside the lock: two threads missing on one key both
        # compose (equal plans, the later insert wins) rather than every
        # other fleet request waiting behind one composition
        cfg.validate()
        shard = functools.partial(compose_shard, cfg, ssd_cfg)
        plans = tuple((map or builtins.map)(shard, range(cfg.shards)))
        requests = sum(len(plan.trace) for plan in plans)
        if requests > self._plans.max_bytes:
            return plans
        for plan in plans:
            plan.trace.freeze()
        self._plans.put(key, plans, requests)
        return plans

    def stats(self) -> dict[str, int]:
        """Thread-safe snapshot of the hit/miss counters and the number
        of plans held."""
        entries = self._plans.stats()["entries"]
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "entries": entries}
