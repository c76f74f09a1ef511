"""Pluggable garbage-collection policies (the policy zoo).

:class:`~repro.ftl.gc.GarbageCollector` owns the *mechanism* — trigger
fast path, retirement draining, the restore loop, relocation plumbing —
and delegates every *decision* to a :class:`GcPolicy` strategy object:

* **victim selection** (:meth:`GcPolicy.select_victim`) over the
  candidate arrays the collector already computed;
* **trigger threshold** (:meth:`GcPolicy.trigger_threshold`) — how
  early collection starts relative to ``SSDConfig.gc_threshold``;
* **relocation budget** (:meth:`GcPolicy.relocation_budget`) — how many
  valid pages one GC invocation may migrate before yielding back to
  host traffic (``None`` = unbounded, the classic stop-the-world
  collection).

A policy holds no state: its tuning values are class constants
(``WindowedGreedyPolicy.WINDOW``, ``PreemptivePolicy.SOFT_THRESHOLD``
and ``SLICE_PAGES``).  The collector passes itself into the hooks that
read device state (its flash service and candidate arrays), so
neither object points back at the other.

The registry (:func:`make_policy`) maps the
:data:`~repro.config.GC_POLICIES` names to classes:

========================  ============================================
name                      behaviour
========================  ============================================
``greedy``                fewest valid pages (paper / SSDsim default)
``cost_benefit``          (1-u)/(2u) * age score; cold blocks win
``windowed_greedy``       greedy among the ``WINDOW`` oldest blocks
``preemptive``            bounded ``SLICE_PAGES``-page slices from
                          ``SOFT_THRESHOLD`` down, full GC only
                          when the plane turns urgent (1807.09313)
``hot_cold``              greedy + hot/cold write-stream separation
========================  ============================================

The ``greedy`` policy reproduces the pre-refactor collector bit for
bit: same victims, same counters, same report digests (enforced by the
golden-hotpath fixture, ``tests/data/golden_hotpath.json``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..config import GC_POLICIES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gc import GarbageCollector

__all__ = [
    "GC_POLICIES",
    "GcPolicy",
    "GreedyPolicy",
    "CostBenefitPolicy",
    "WindowedGreedyPolicy",
    "PreemptivePolicy",
    "HotColdPolicy",
    "make_policy",
]


class GcPolicy:
    """Strategy interface the :class:`GarbageCollector` delegates to.

    Hooks that read device state take the calling collector as ``gc``,
    which gives access to the flash service and its block columns
    without duplicating any of them here.
    """

    #: registry name (matches :data:`repro.config.GC_POLICIES`)
    name: str = "base"
    #: request hot/cold write-stream separation in the allocator
    #: (user and GC traffic fill distinct active blocks)
    separate_streams: bool = False
    #: collect in bounded slices (partial GC) instead of running the
    #: full restore loop on every trigger
    partial: bool = False

    # -- scheduling ----------------------------------------------------
    def trigger_threshold(self, threshold: float) -> float:
        """Effective free-block fraction below which GC engages; the
        default keeps the configured ``gc_threshold``."""
        return threshold

    def relocation_budget(self) -> int | None:
        """Valid pages one GC invocation may relocate (``None`` =
        unbounded)."""
        return None

    # -- victim selection ----------------------------------------------
    def select_victim(
        self,
        gc: "GarbageCollector",
        plane: int,
        lo: int,
        valid: np.ndarray,
        eligible: np.ndarray,
    ) -> int:
        """Pick a victim among ``eligible`` blocks (at least one is
        eligible; the collector handled the empty case)."""
        raise NotImplementedError


class GreedyPolicy(GcPolicy):
    """Fewest valid pages — the paper's (and SSDsim's) default.

    This is the pre-refactor behaviour verbatim; runs with this policy
    are bit-identical to the monolithic collector they replaced.
    """

    name = "greedy"

    def select_victim(self, gc, plane, lo, valid, eligible):
        """Eligible block with the fewest valid pages (lowest index
        wins ties, matching the original collector)."""
        costs = np.where(eligible, valid, np.iinfo(valid.dtype).max)
        return lo + int(np.argmin(costs))


class CostBenefitPolicy(GcPolicy):
    """Classic cost-benefit: maximise ``(1-u)/(2u) * age``.

    ``age`` is the time (in block-modification sequence numbers) since
    the block last changed, so cold blocks win ties — hot data gets
    time to invalidate itself before being migrated.
    """

    name = "cost_benefit"

    def select_victim(self, gc, plane, lo, valid, eligible):
        """Eligible block maximising the cost-benefit score."""
        geom = gc.service.geom
        arr = gc.service.array
        hi = lo + geom.blocks_per_plane
        ppb = geom.pages_per_block
        u = valid / ppb
        age = (arr.mod_seq - arr.last_mod[lo:hi]).astype(np.float64) + 1.0
        benefit = (1.0 - u) / (2.0 * u + 1e-9) * age
        benefit = np.where(eligible, benefit, -np.inf)
        return lo + int(np.argmax(benefit))


class WindowedGreedyPolicy(GcPolicy):
    """Greedy restricted to the ``WINDOW`` least-recently-modified
    sealed blocks — a cheap cost-benefit approximation: the window
    screens out hot blocks (young ``last_mod``), greedy then minimises
    migration cost within it."""

    name = "windowed_greedy"
    #: candidate window: victims come from this many least-recently-
    #: modified sealed blocks of the plane
    WINDOW = 8

    def select_victim(self, gc, plane, lo, valid, eligible):
        """Greedy pick restricted to the window's oldest blocks."""
        arr = gc.service.array
        hi = lo + gc.service.geom.blocks_per_plane
        idx = np.nonzero(eligible)[0]
        if idx.size > self.WINDOW:
            # stable sort: equal ages resolve to the lower block index,
            # keeping victim choice deterministic across runs
            order = np.argsort(arr.last_mod[lo:hi][idx], kind="stable")
            idx = idx[order[: self.WINDOW]]
        return lo + int(idx[np.argmin(valid[idx])])


class PreemptivePolicy(GreedyPolicy):
    """Preemptive/partial GC with request-aware deferral (1807.09313).

    Victims are greedy's; what differs is when, and how much of one,
    is collected.  Collection starts early — when the plane's free
    fraction drops below ``SOFT_THRESHOLD`` — but each invocation
    (which runs between host requests, right after a page program)
    relocates at most ``SLICE_PAGES`` valid pages of the current victim
    before deferring the remainder.  Pages the host invalidates between slices
    never need migration at all, which is where the WAF saving comes
    from.  Once the plane falls below the classic ``gc_threshold`` the
    collector abandons slicing and runs the full restore loop, so
    allocation can never starve behind a polite policy.
    """

    name = "preemptive"
    partial = True
    #: free-block fraction below which background collection slices
    #: start (the configured ``gc_threshold`` stays the urgent
    #: fall-back, and wins when it is the higher of the two)
    SOFT_THRESHOLD = 0.20
    #: valid pages one collection slice may relocate before deferring
    #: back to host traffic
    SLICE_PAGES = 8

    def trigger_threshold(self, threshold: float) -> float:
        """Engage early, at the preemption (soft) threshold."""
        return max(threshold, self.SOFT_THRESHOLD)

    def relocation_budget(self) -> int | None:
        """At most ``SLICE_PAGES`` migrations per invocation."""
        return self.SLICE_PAGES


class HotColdPolicy(GreedyPolicy):
    """Greedy victim selection with hot/cold write-stream separation:
    GC-migrated (cold, survived at least one collection) pages fill
    different active blocks than fresh user writes, so blocks stop
    mixing lifetimes (Dayan & Bonnet, arXiv 1504.01666)."""

    name = "hot_cold"
    separate_streams = True


_REGISTRY: dict[str, type[GcPolicy]] = {
    cls.name: cls
    for cls in (
        GreedyPolicy,
        CostBenefitPolicy,
        WindowedGreedyPolicy,
        PreemptivePolicy,
        HotColdPolicy,
    )
}

assert tuple(_REGISTRY) == GC_POLICIES, "registry drifted from config"


def make_policy(name: str) -> GcPolicy:
    """Instantiate the registered policy ``name``; raises
    :class:`ValueError` on unknown names (the pre-refactor
    :class:`GarbageCollector` contract)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown GC policy {name!r}; expected one of {GC_POLICIES}"
        ) from None
    return cls()
