"""Runtime cross-layer invariant sweeps.

A sweep asserts the *conservation laws* that hold between host
requests, no matter how aggressively the hot path is optimised:

1.  **Flash bookkeeping** — per-block ``valid_count`` equals the VALID
    page count, write pointers split each block into a programmed
    prefix and a FREE suffix, retired blocks are sealed, and a page
    holds a record (``kind != 0``) exactly while it is VALID
    (:meth:`repro.flash.array.FlashArray.check_invariants`).
2.  **Free-pool conservation** — a block sits in its plane's free pool
    exactly when it is fully erased (``write_ptr == 0``) and not
    retired, appears there exactly once, and in the right plane's pool.
3.  **Chip-timeline monotonicity** — ``busy_until``, accumulated
    ``busy_time`` and ``op_count`` never move backwards between sweeps
    (time travel is how queue-model bugs historically surfaced).
4.  **Counter conservation** — host + GC + map + aging programs add up
    to the array's lifetime program total; same for page reads; erases
    plus aging erases equal the array's erase total (failed erases
    retire the block *without* erasing it, so they are excluded on both
    sides).
5.  **Mapping reachability** — the scheme's own table checks
    (PMT/AIdx/AMT/region-slot detail), plus: every PPN any table
    references is VALID on flash, and every VALID flash page is
    referenced by *exactly one* table owner
    (:meth:`repro.ftl.base.BaseFTL.referenced_ppns`).

Sweeps only run *between* requests (and at end of run), which is what
makes 2 sound: mid-GC a block can transiently be out of the pool with
``write_ptr == 0``.
"""

from __future__ import annotations

import numpy as np

from ..config import CheckConfig
from ..errors import InvariantViolation
from ..flash.array import PAGE_FREE, PAGE_VALID


class InvariantChecker:
    """Periodic cross-layer consistency sweeps over one simulator run.

    Built by the engine when ``SimConfig.check.enabled`` is set; call
    :meth:`maybe_check` after each serviced request and :meth:`check_now`
    for the unconditional end-of-run sweep.  Any violated law raises
    :class:`~repro.errors.InvariantViolation` (or the violated
    subsystem's own :class:`~repro.errors.MappingError` /
    :class:`~repro.errors.FlashProtocolError`) naming both sides of the
    disagreement.
    """

    def __init__(self, ftl, cfg: CheckConfig | None = None):
        self.ftl = ftl
        self.cfg = cfg or CheckConfig(enabled=True)
        self.service = ftl.service
        self.array = ftl.service.array
        self.timeline = ftl.service.timeline
        self.counters = ftl.service.counters
        #: completed sweep count (reported as ``check_sweeps``)
        self.sweeps = 0
        # previous-sweep timeline snapshots for the monotonicity law
        self._busy_until = np.array(self.timeline.busy_until, copy=True)
        self._busy_time = np.array(self.timeline.busy_time, copy=True)
        self._op_count = np.array(self.timeline.op_count, copy=True)

    # ------------------------------------------------------------------
    def maybe_check(self, requests_done: int) -> None:
        """Run a sweep when the cadence (``cfg.every``) says so."""
        every = self.cfg.every
        if every and requests_done % every == 0:
            self.check_now()

    def check_now(self) -> None:
        """Run one full sweep; raises on the first violated law."""
        self.array.check_invariants()
        self._check_free_pool()
        self._check_timeline()
        self._check_counters()
        self.ftl.check_invariants()
        self._check_reachability()
        self.sweeps += 1

    #: absolute tolerance (ms) for the attribution conservation law;
    #: phase subtraction is exact (Sterbenz: all endpoints sit inside a
    #: narrow window of a common magnitude), so only the final sum
    #: accumulates rounding — orders of magnitude below this bound
    ATTRIBUTION_TOL_MS = 1e-9

    def check_attribution(
        self, phases: dict, latency: float, rid: int = -1
    ) -> None:
        """Conservation law for latency attribution: the per-request
        phase durations (:mod:`repro.obs.attribution`) must sum to the
        recorded request latency.

        Called per request by the engine when both the checker and
        ``observability.attribution`` are enabled.  A violation means a
        gating flash operation was not recorded (an un-instrumented
        code path) or a background bracket leaked — the attribution
        analogue of the counter-conservation sweep.
        """
        total = 0.0
        for ms in phases.values():
            total += ms
        if abs(total - latency) > self.ATTRIBUTION_TOL_MS:
            parts = ", ".join(
                f"{k}={v:.9f}" for k, v in sorted(phases.items())
            )
            raise InvariantViolation(
                f"attribution phases sum to {total:.12f} ms but request "
                f"{rid} latency is {latency:.12f} ms "
                f"(delta {total - latency:+.3e}; phases: {parts or 'none'})"
            )

    def check_hazard_order(self, issuing, held, inflight) -> None:
        """Ordering law for the event-driven frontend: a request being
        released must not overlap (with at least one side mutating) any
        request still held back by the scheduler or already in flight.

        Called by :meth:`repro.sim.frontend.FrontendScheduler.dispatch`
        at every release decision; the interval arithmetic here is
        deliberately independent of the scheduler's own
        ``Request.conflicts`` so a bug in its hazard test cannot also
        hide the violation.  TRIMs count as writes; read/read overlap
        is allowed.
        """
        from ..traces.model import OP_READ

        lo = issuing.offset
        hi = issuing.offset + issuing.size
        is_read = issuing.op == OP_READ
        for group, other in (
            [("in-flight", o) for o in inflight]
            + [("held", o) for o in held]
        ):
            if is_read and other.op == OP_READ:
                continue
            if lo < other.offset + other.size and other.offset < hi:
                raise InvariantViolation(
                    f"hazard-order violation: request {issuing.rid} "
                    f"(op={issuing.op}, [{lo},{hi})) released over "
                    f"{group} request {other.rid} (op={other.op}, "
                    f"[{other.offset},{other.offset + other.size}))"
                )

    # ------------------------------------------------------------------
    def _check_free_pool(self) -> None:
        arr = self.array
        geom = arr.geom
        pooled: list[int] = []
        for plane, pool in enumerate(arr._free_blocks):
            for block in pool:
                if geom.plane_of_block(block) != plane:
                    raise InvariantViolation(
                        f"block {block} pooled in plane {plane} but lives "
                        f"in plane {geom.plane_of_block(block)}"
                    )
            pooled.extend(pool)
        pooled_arr = np.array(sorted(pooled), dtype=np.int64)
        if pooled_arr.size and (np.diff(pooled_arr) == 0).any():
            dup = int(pooled_arr[np.nonzero(np.diff(pooled_arr) == 0)[0][0]])
            raise InvariantViolation(f"block {dup} pooled more than once")
        erased = np.nonzero((arr.write_ptr == 0) & ~arr.is_bad)[0]
        if pooled_arr.size != erased.size or not np.array_equal(
            pooled_arr, erased
        ):
            missing = np.setdiff1d(erased, pooled_arr)
            extra = np.setdiff1d(pooled_arr, erased)
            if missing.size:
                raise InvariantViolation(
                    f"block {int(missing[0])} is erased (wp=0, not bad) "
                    f"but absent from its plane's free pool"
                )
            raise InvariantViolation(
                f"block {int(extra[0])} is pooled but not erased "
                f"(wp={int(arr.write_ptr[extra[0]])}, "
                f"bad={bool(arr.is_bad[extra[0]])})"
            )
        if pooled_arr.size:
            states = arr.page_state.reshape(-1, geom.pages_per_block)[pooled_arr]
            if (states != PAGE_FREE).any():
                bad = int(pooled_arr[(states != PAGE_FREE).any(axis=1)][0])
                raise InvariantViolation(
                    f"pooled block {bad} holds non-free pages"
                )

    def _check_timeline(self) -> None:
        tl = self.timeline
        for name, prev, cur in (
            ("busy_until", self._busy_until, tl.busy_until),
            ("busy_time", self._busy_time, tl.busy_time),
            ("op_count", self._op_count, tl.op_count),
        ):
            cur = np.asarray(cur)
            moved_back = np.nonzero(cur < prev)[0]
            if moved_back.size:
                chip = int(moved_back[0])
                raise InvariantViolation(
                    f"chip {chip} {name} moved backwards: "
                    f"{prev[chip]} -> {cur[chip]}"
                )
            prev[:] = cur

    def _check_counters(self) -> None:
        c = self.counters
        arr = self.array
        counted = sum(c.writes.values())
        if counted != arr.total_programs:
            raise InvariantViolation(
                f"program conservation: counters sum to {counted} "
                f"(host+GC+map+aging) but the array performed "
                f"{arr.total_programs} programs"
            )
        counted = sum(c.reads.values())
        if counted != arr.total_page_reads:
            raise InvariantViolation(
                f"read conservation: counters sum to {counted} but the "
                f"array performed {arr.total_page_reads} page reads"
            )
        counted = c.erases + c.aging_erases
        if counted != arr.total_erases:
            raise InvariantViolation(
                f"erase conservation: counters sum to {counted} but "
                f"block erase counters sum to {arr.total_erases}"
            )

    def _check_reachability(self) -> None:
        arr = self.array
        state = arr.page_state
        owners: dict[int, str] = {}
        for ppn, owner in self.ftl.referenced_ppns():
            prior = owners.get(ppn)
            if prior is not None:
                raise InvariantViolation(
                    f"PPN {ppn} claimed by two owners: {prior} and {owner}"
                )
            if state[ppn] != PAGE_VALID:
                raise InvariantViolation(
                    f"{owner} references PPN {ppn} which is not valid "
                    f"on flash (state={int(state[ppn])})"
                )
            owners[ppn] = owner
        n_valid = arr.total_valid_pages
        if len(owners) != n_valid:
            for ppn in np.flatnonzero(state == PAGE_VALID).tolist():
                if ppn not in owners:
                    raise InvariantViolation(
                        f"valid PPN {ppn} ({arr.meta(ppn)!r}) is "
                        f"unreachable from every mapping table"
                    )
            raise InvariantViolation(
                f"reachability count mismatch: {len(owners)} owned vs "
                f"{n_valid} valid pages"
            )
