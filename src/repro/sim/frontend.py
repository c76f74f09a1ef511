"""Hazard-aware frontend scheduler for the event-driven replay loop.

The frontend owns every request between its ``arrive`` and ``issue``
events (:meth:`repro.sim.engine.Simulator._run_frontend`).  It enforces
the ordering contract a real NCQ device provides to the host:

* **RAW** — a read must not issue while an earlier-arrived write (or
  TRIM) to an overlapping sector extent is waiting or in flight: it
  would race past data it is supposed to observe.
* **WAW** — overlapping writes issue in arrival order, so the newest
  data always lands last.
* **WAR** — a write must not issue while an earlier-arrived
  overlapping read is waiting or in flight: the read returns the
  pre-write data (its arrival-time snapshot).

Reads never conflict with reads; TRIMs count as writes.  Requests free
of hazards may issue out of arrival order within a bounded scan
``window`` — that reordering freedom is what per-chip read
prioritisation (:mod:`repro.sim.nand_sched`) exploits.

NCQ queue-slot accounting lives here too: at most
``SimConfig.queue_depth`` *NAND-bound* requests are outstanding at
once.  Reads served entirely from the DRAM data cache and
metadata-only TRIMs bypass the NAND queue (they are still tracked as
in-flight for hazard purposes until their ``complete`` event fires).

The scheduler knows nothing about timing: it decides *eligibility*,
the engine decides *what happens* at issue, and the chip schedulers
decide *when* a NAND-bound command leaves its queue.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..traces.model import OP_READ, OP_TRIM
from .nand_sched import NandScheduler


class Request:
    """Mutable per-request state threaded through the engine's request
    lifecycle (arrive, issue, complete) in both replay loops."""

    __slots__ = (
        "rid", "op", "offset", "size", "arrival", "across",
        "version", "expect", "read_index", "found",
        "cache_hit", "chip", "finish", "induced", "phases", "stalled",
    )

    def __init__(
        self, rid: int, op: int, offset: int, size: int,
        arrival: float, across: bool,
    ):
        self.rid = rid
        self.op = op
        self.offset = offset
        self.size = size
        self.arrival = arrival
        self.across = across
        #: oracle version assigned at arrival (writes)
        self.version: Optional[int] = None
        #: oracle versions snapshotted at arrival (reads)
        self.expect: Optional[dict] = None
        #: arrival-order index among reads (digest folding order)
        self.read_index = -1
        #: per-sector stamps the service path returned (reads)
        self.found: Optional[dict] = None
        #: DRAM-cache probe result (reads); None = not probed yet
        self.cache_hit: Optional[bool] = None
        #: chip scheduler the request was queued on; -1 = none, so a
        #: request holds a NAND NCQ slot exactly when ``chip >= 0``
        self.chip = -1
        self.finish = -1.0
        #: flash programs this request induced (service-time delta)
        self.induced = 0
        #: attribution phase dict captured at issue (emitted at complete)
        self.phases: Optional[dict] = None
        #: a HazardStall was already emitted/counted for this request
        self.stalled = False

    def conflicts(self, other: "Request") -> bool:
        """LBA-overlap hazard test: extents intersect and at least one
        side mutates data (TRIM counts as a write)."""
        if self.op == OP_READ and other.op == OP_READ:
            return False
        return (
            self.offset < other.offset + other.size
            and other.offset < self.offset + self.size
        )

    def __repr__(self) -> str:  # debugging aid only
        return (
            f"Request(rid={self.rid}, op={self.op}, "
            f"[{self.offset},{self.offset + self.size}), "
            f"arrival={self.arrival})"
        )


class FrontendScheduler:
    """Admission control: hazards, NCQ slots, and the dispatch scan.

    ``probe_cache(req, now) -> bool`` is the engine hook that performs
    the one-time DRAM-cache lookup for a hazard-clear read (it owns the
    cache, the counters and the ``BufferLookup`` event).  ``on_stall``
    (optional) is called once per request the first time a hazard
    blocks it.  ``checker`` (optional) re-validates every issue
    decision independently
    (:meth:`repro.check.invariants.InvariantChecker.check_hazard_order`).
    """

    def __init__(
        self,
        *,
        queue_depth: int | None,
        window: int,
        nand: NandScheduler,
        predict_chip: Callable[[Request], int],
        probe_cache: Callable[[Request, float], bool],
        issue: Callable[[Request, float], None],
        on_stall: Optional[Callable[[Request, Request, float], None]] = None,
        checker=None,
    ):
        self.queue_depth = queue_depth
        self.window = window
        self.nand = nand
        self._predict_chip = predict_chip
        self._probe_cache = probe_cache
        self._issue = issue
        self._on_stall = on_stall
        self.checker = checker
        #: arrival-ordered requests not yet released by the frontend
        self.waiting: list[Request] = []
        #: requests released but not yet complete (hazard set)
        self.inflight: list[Request] = []
        #: NAND NCQ slots currently held
        self.slots_used = 0
        #: requests that were hazard-blocked at least once
        self.hazard_stalls = 0
        #: reads served from DRAM without occupying a NAND slot
        self.cache_bypass = 0

    # ------------------------------------------------------------------
    def add(self, req: Request) -> None:
        """Take custody of a newly arrived request."""
        self.waiting.append(req)

    def on_complete(self, req: Request, now: float) -> None:
        """Release the hazard entry, NCQ slot and chip budget of a
        completed request."""
        self.inflight.remove(req)
        if req.chip >= 0:
            self.slots_used -= 1
        self.nand.on_complete(req, now)

    # ------------------------------------------------------------------
    def dispatch(self, now: float) -> bool:
        """Release every eligible waiting request within the scan window.

        One pass suffices: releasing a request moves it from
        ``waiting`` to ``inflight`` without weakening any hazard it
        imposes, and slots only free on completion events.  Issuing a
        released request changes nothing a pass reads, so a second
        pass before the next arrival or completion releases nothing —
        unless this one stopped at its ``window`` after releasing some
        requests, which lets unscanned ones move up into the window.
        Returns whether that happened.
        """
        waiting = self.waiting
        if not waiting:
            return False
        qd = self.queue_depth
        inflight = self.inflight
        #: earlier-scanned requests that stayed in the queue; later
        #: candidates must respect arrival order against them
        held: list[Request] = []
        scanned = 0
        i = 0
        while i < len(waiting) and scanned < self.window:
            req = waiting[i]
            scanned += 1
            blocker = self._hazard(req, held, inflight)
            if blocker is not None:
                if not req.stalled:
                    req.stalled = True
                    self.hazard_stalls += 1
                    if self._on_stall is not None:
                        self._on_stall(req, blocker, now)
                held.append(req)
                i += 1
                continue
            # hazard-clear: classify the service path
            needs_slot = True
            if req.op == OP_READ:
                if req.cache_hit is None:
                    req.cache_hit = self._probe_cache(req, now)
                if req.cache_hit:
                    needs_slot = False
            elif req.op == OP_TRIM:
                # metadata-only, completes at DRAM speed
                needs_slot = False
            if needs_slot and qd is not None and self.slots_used >= qd:
                # NCQ full: NAND-bound requests wait, but later
                # DRAM-speed requests may still slip past this one —
                # hold it so arrival order vs conflicting ones survives
                held.append(req)
                i += 1
                continue
            if self.checker is not None:
                self.checker.check_hazard_order(req, held, inflight)
            del waiting[i]
            inflight.append(req)
            if needs_slot:
                self.slots_used += 1
                req.chip = self._predict_chip(req)
                self.nand.submit(req, now)
            else:
                if req.op == OP_READ:
                    self.cache_bypass += 1
                self._issue(req, now)
        return scanned > i and i < len(waiting)

    @staticmethod
    def _hazard(
        req: Request, held: list, inflight: list
    ) -> Optional[Request]:
        """First request ``req`` must wait for, or None when clear."""
        for other in inflight:
            if req.conflicts(other):
                return other
        for other in held:
            if req.conflicts(other):
                return other
        return None
