"""Garbage collection: trigger mechanism + pluggable policies.

When a plane's free-block fraction drops below the policy's trigger
threshold (Table 1: 10% for the default greedy policy), the collector
repeatedly picks the sealed block with the fewest valid pages (the
greedy victim every policy shares), migrates its valid pages through
the FTL's ``_relocate_pages`` (which re-programs them and fixes the
mapping tables), and erases the block — until the plane is back above
``gc_restore``, no block would yield free space, or it has taken as
many victims as the plane has blocks.  The configured
:class:`GcPolicy` (:mod:`repro.ftl.gc_policy`) decides when and how
much: partial policies (``preemptive``) relocate bounded slices per
invocation and defer the rest to later invocations while the plane
stays healthy.

Erase operations are the paper's endurance metric (Fig. 11); migration
reads/writes are counted with :attr:`OpKind.GC` so they appear in the
flash-op totals of Fig. 10 without polluting the Data/Map split.

The collector keeps no reference to its FTL: the FTL passes itself
into every call that may move pages, so a dropped device is freed by
reference counting alone.
"""

from __future__ import annotations

import numpy as np

from ..config import GC_POLICIES
from ..flash.service import FlashService
from ..obs.events import GCEvent, GcPolicyDecision, GCStall
from .allocator import WriteAllocator
from .gc_policy import GcPolicy, make_policy

__all__ = ["GC_POLICIES", "GarbageCollector"]


class GarbageCollector:
    """Per-plane greedy collector scheduled by a :class:`GcPolicy`."""

    def __init__(
        self,
        service: FlashService,
        allocator: WriteAllocator,
        threshold: float,
        restore: float,
        policy: str | GcPolicy = "greedy",
    ):
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.service = service
        self.allocator = allocator
        #: the policy's registry name
        self.policy = policy.name
        #: effective trigger threshold (the policy may start earlier
        #: than the configured ``gc_threshold``, e.g. ``preemptive``)
        self.threshold = policy.trigger_threshold(threshold)
        #: the configured threshold: below this the plane is *urgent*
        #: and even partial policies run the full restore loop
        self.hard_threshold = threshold
        self.restore = restore
        self._collecting = False
        # maybe_collect() runs after every page program; precompute the
        # smallest free-block count whose free_fraction clears the GC
        # trigger (testing the same float comparison free_fraction
        # would) so the common "plane is healthy" case is one integer
        # compare with no try/finally or method calls.
        bpp = service.geom.blocks_per_plane
        self._free_blocks = service.array._free_blocks
        self._retire_pending = service.retire_pending
        self._ok_free_count = next(
            (c for c in range(bpp + 1) if c / bpp >= self.threshold), bpp + 1
        )
        # policy plumbing resolved once: partial mode and slice budget
        self._partial = policy.partial
        self._budget = policy.relocation_budget()
        #: plane -> victim block a partial policy is mid-way through
        self._partial_victim: dict[int, int] = {}
        #: number of GC invocations (victim blocks processed)
        self.collections = 0
        #: valid pages migrated over the run (write-amplification source)
        self.migrated_pages = 0
        #: collection passes that found no victim to reclaim (mirrors
        #: the measured ``FlashOpCounters.gc_stalls``, but also counts
        #: aging-time stalls)
        self.stalls = 0
        #: bounded collection slices run by a partial policy (mirrors
        #: the measured ``FlashOpCounters.gc_slices`` + aging-time ones)
        self.slices = 0
        #: slices that left the victim un-erased, deferring the rest to
        #: a later invocation (measured twin: ``gc_deferrals``)
        self.deferrals = 0

    # ------------------------------------------------------------------
    #: the tallies of :meth:`state`, in order
    _TALLIES = (
        "collections", "migrated_pages", "stalls", "slices", "deferrals",
    )

    def state(self) -> dict:
        """Tallies and the partial policy's mid-way victims (policies
        themselves keep no state) — the device-state seam,
        docs/architecture.md."""
        return {
            "tallies": [getattr(self, name) for name in self._TALLIES],
            "partial_victim": [list(kv) for kv in self._partial_victim.items()],
        }

    def load_state(self, s: dict) -> None:
        """Overwrite the collector with a :meth:`state` snapshot."""
        for name, value in zip(self._TALLIES, s["tallies"]):
            setattr(self, name, value)
        self._partial_victim.clear()
        self._partial_victim.update(map(tuple, s["partial_victim"]))

    # ------------------------------------------------------------------
    def select_victim(self, plane: int) -> int | None:
        """The eligible block with the fewest valid pages (lowest index
        wins ties); None when no eligible block would free any space."""
        geom = self.service.geom
        arr = self.service.array
        lo = plane * geom.blocks_per_plane
        hi = lo + geom.blocks_per_plane
        valid = arr.valid_count[lo:hi]
        eligible = arr.write_ptr[lo:hi] == geom.pages_per_block
        active = self.allocator.active_in_plane(plane)
        if active is not None:
            eligible = eligible.copy()
            eligible[active - lo] = False
        # a fully-valid block frees nothing: never a victim
        eligible = eligible & (valid < geom.pages_per_block)
        # retired bad blocks look like perfect victims (0 valid, sealed
        # write pointer) but can never be erased
        eligible = eligible & ~arr.is_bad[lo:hi]
        if not eligible.any():
            return None
        costs = np.where(eligible, valid, np.iinfo(valid.dtype).max)
        return lo + int(np.argmin(costs))

    # ------------------------------------------------------------------
    def _move_valid(
        self, ftl, block: int, now: float, timed: bool, budget: int | None = None
    ) -> tuple[float, int]:
        """Relocate the valid pages of ``block`` — the first ``budget``
        of them, when given — as one call of ``ftl._relocate_pages``;
        returns (finish, pages moved)."""
        ppns = self.service.array.valid_ppns(block)[:budget]
        moved = len(ppns)
        self.migrated_pages += moved
        return (ftl._relocate_pages(ppns, now, timed) if moved else now), moved

    def collect_once(
        self, ftl, plane: int, now: float, *, timed: bool = True
    ) -> float:
        """Collect a single victim block; returns the erase finish time,
        or ``now`` when no victim exists."""
        victim = self.select_victim(plane)
        if victim is None:
            return now
        arr = self.service.array
        obs = self.service.obs
        if obs is not None:
            obs.emit(GCEvent(
                now, plane, victim, int(arr.valid_count[victim])
            ))
        finish, _ = self._move_valid(ftl, victim, now, timed)
        finish = max(finish, self.service.erase_block(victim, now, aging=not timed))
        self.collections += 1
        return finish

    def _drain_retirements(self, ftl, now: float, *, timed: bool = True) -> float:
        """Retire blocks queued on ``service.retire_pending``: relocate
        their valid pages (the bad-block *remapping* — across-page areas
        ride the same ``ftl._relocate_pages`` GC migration uses, so
        their data survives intact), then take the block out of
        service.

        Blocks still serving as a write frontier, or not yet fully
        written, are left queued and picked up once sealed.
        """
        service = self.service
        if not service.retire_pending:
            return now
        arr = service.array
        geom = service.geom
        finish = now
        for block in sorted(service.retire_pending):
            if arr.is_bad[block]:
                service.retire_pending.discard(block)
                continue
            plane = geom.plane_of_block(block)
            if block == self.allocator.active_in_plane(plane):
                continue
            if arr.write_ptr[block] < geom.pages_per_block:
                continue
            moved_by, relocated = self._move_valid(ftl, block, now, timed)
            finish = max(finish, moved_by)
            if timed and relocated:
                service.counters.fault_relocations += relocated
            service.retire(block, finish, relocated)
        return finish

    def _collect_until_restored(
        self, ftl, plane: int, now: float, *, timed: bool = True
    ) -> float:
        """The classic stop-the-world loop: collect whole victims until
        the plane's free fraction clears ``restore`` (hysteresis), at
        most one pass over the plane's blocks.

        Only a pass that finds no victim is a stall.  A victim erased
        (or retired, when its erase failed) is progress even when the
        plane's free count did not rise: migrating its valid pages may
        have filled the active block and opened the next one."""
        finish = now
        service = self.service
        for _ in range(service.geom.blocks_per_plane):
            if service.free_fraction(plane) >= self.restore:
                break
            collections = self.collections
            finish = max(finish, self.collect_once(ftl, plane, now, timed=timed))
            if self.collections == collections:
                # nothing reclaimable; let allocation fail upstream —
                # but make the starvation visible where it happens
                self.stalls += 1
                if timed:
                    service.counters.gc_stalls += 1
                obs = service.obs
                if obs is not None:
                    obs.emit(GCStall(
                        now, plane, service.array.free_block_count(plane)
                    ))
                break
        return finish

    def _collect_slice(
        self, ftl, plane: int, now: float, *, timed: bool = True
    ) -> float:
        """One bounded collection slice of a partial policy: continue
        (or start) the plane's victim, relocate at most the policy's
        budget of valid pages, erase the victim once it is empty, and
        defer the rest to the next invocation."""
        service = self.service
        if service.free_fraction(plane) < self.hard_threshold:
            # urgent: the plane hit the classic GC threshold — drop the
            # polite slicing and restore headroom now, so allocation
            # can never starve behind a deferring policy
            self._partial_victim.pop(plane, None)
            obs = service.obs
            if obs is not None:
                obs.emit(GcPolicyDecision(
                    now, plane, self.policy, "urgent", -1, 0
                ))
            return self._collect_until_restored(ftl, plane, now, timed=timed)
        arr = service.array
        obs = service.obs
        victim = self._partial_victim.get(plane)
        if victim is not None and arr.is_bad[victim]:
            # retired as bad between slices; pick a fresh victim
            self._partial_victim.pop(plane)
            victim = None
        if victim is None:
            victim = self.select_victim(plane)
            if victim is None:
                self.stalls += 1
                if timed:
                    service.counters.gc_stalls += 1
                if obs is not None:
                    obs.emit(GCStall(
                        now, plane, arr.free_block_count(plane)
                    ))
                return now
            self._partial_victim[plane] = victim
            if obs is not None:
                obs.emit(GCEvent(
                    now, plane, victim, int(arr.valid_count[victim])
                ))
        finish, moved = self._move_valid(ftl, victim, now, timed, self._budget)
        self.slices += 1
        if timed:
            service.counters.gc_slices += 1
        if int(arr.valid_count[victim]) == 0:
            finish = max(
                finish, service.erase_block(victim, now, aging=not timed)
            )
            self.collections += 1
            self._partial_victim.pop(plane, None)
            action = "slice_erase"
        else:
            # the victim keeps valid pages: defer them — host
            # overwrites may invalidate some before the next slice,
            # which is the policy's whole WAF saving
            self.deferrals += 1
            if timed:
                service.counters.gc_deferrals += 1
            action = "defer"
        if obs is not None:
            obs.emit(GcPolicyDecision(
                now, plane, self.policy, action, victim, moved
            ))
        return finish

    def maybe_collect(
        self, ftl, plane: int, now: float, timed: bool = True
    ) -> float:
        """Run GC on ``plane`` of ``ftl``'s device if it is below the
        trigger threshold; returns the time the reclamation finished
        (``now`` when nothing ran).

        Every write path calls this right after a program, once its
        tables name the new page: one pass may take several victims,
        the block that program filled among them.  GC work keeps the
        chips busy (delaying *later* requests — the long-tail effect)
        but does not gate the triggering request's completion.

        Blocks queued for bad-block retirement are drained first (even
        above the GC threshold), so media failures translate into
        relocation traffic and lost over-provisioning promptly rather
        than lingering until the plane fills up.
        """
        if (
            not self._retire_pending
            and len(self._free_blocks[plane]) >= self._ok_free_count
        ):
            # healthy plane, nothing queued for retirement: the slow
            # path below would do exactly nothing
            return now
        if self._collecting:
            return now
        self._collecting = True
        # GC work is background for latency attribution: it occupies
        # chips (surfacing as gc_stall waits on later requests) but
        # never gates the triggering request's completion
        attr = self.service.attr
        if attr is not None:
            attr.suspend()
        finish = now
        try:
            finish = max(finish, self._drain_retirements(ftl, now, timed=timed))
            if self.service.free_fraction(plane) >= self.threshold:
                return finish
            if self._partial:
                finish = max(
                    finish, self._collect_slice(ftl, plane, now, timed=timed)
                )
            else:
                finish = max(
                    finish,
                    self._collect_until_restored(ftl, plane, now, timed=timed),
                )
        finally:
            self._collecting = False
            if attr is not None:
                attr.resume()
        return finish
