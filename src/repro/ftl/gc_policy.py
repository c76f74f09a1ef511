"""Pluggable garbage-collection policies (the policy zoo).

:class:`~repro.ftl.gc.GarbageCollector` owns the *mechanism* — trigger
fast path, retirement draining, the restore loop, relocation plumbing
and the greedy victim pick every policy shares — and asks a
:class:`GcPolicy` strategy object the *scheduling* questions:

* **trigger threshold** (:meth:`GcPolicy.trigger_threshold`) — how
  early collection starts relative to ``SSDConfig.gc_threshold``;
* **relocation budget** (:meth:`GcPolicy.relocation_budget`) — how many
  valid pages one GC invocation may migrate before yielding back to
  host traffic (``None`` = unbounded, the classic stop-the-world
  collection);
* **mechanism flags** — ``separate_streams`` (hot/cold write streams in
  the allocator) and ``partial`` (bounded-slice collection).

A policy holds no state: its tuning values are class constants
(``PreemptivePolicy.SOFT_THRESHOLD`` and ``SLICE_PAGES``).

The registry (:func:`make_policy`) maps the
:data:`~repro.config.GC_POLICIES` names to classes:

========================  ============================================
name                      behaviour
========================  ============================================
``greedy``                :class:`GcPolicy` itself: the classic
                          threshold / restore loop (paper / SSDsim
                          default)
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

from ..config import GC_POLICIES

__all__ = [
    "GC_POLICIES",
    "GcPolicy",
    "PreemptivePolicy",
    "HotColdPolicy",
    "make_policy",
]


class GcPolicy:
    """The ``greedy`` policy, and the base every other policy tunes:
    collect when the free fraction drops below ``gc_threshold``, run
    the restore loop to completion, one write stream."""

    #: registry name (matches :data:`repro.config.GC_POLICIES`)
    name: str = "greedy"
    #: request hot/cold write-stream separation in the allocator
    #: (user and GC traffic fill distinct active blocks)
    separate_streams: bool = False
    #: collect in bounded slices (partial GC) instead of running the
    #: full restore loop on every trigger
    partial: bool = False

    def trigger_threshold(self, threshold: float) -> float:
        """Effective free-block fraction below which GC engages; the
        default keeps the configured ``gc_threshold``."""
        return threshold

    def relocation_budget(self) -> int | None:
        """Valid pages one GC invocation may relocate (``None`` =
        unbounded)."""
        return None


class PreemptivePolicy(GcPolicy):
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


class HotColdPolicy(GcPolicy):
    """Greedy victim selection with hot/cold write-stream separation:
    GC-migrated (cold, survived at least one collection) pages fill
    different active blocks than fresh user writes, so blocks stop
    mixing lifetimes (Dayan & Bonnet, arXiv 1504.01666)."""

    name = "hot_cold"
    separate_streams = True


_REGISTRY: dict[str, type[GcPolicy]] = {
    cls.name: cls for cls in (GcPolicy, PreemptivePolicy, HotColdPolicy)
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
