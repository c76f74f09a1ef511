"""Facade combining the flash array, chip timelines and op counters.

FTL code talks to this object only.  Every call both mutates NAND state
and returns the *completion time* of the operation, so the FTL can fold
flash latencies into request response times without touching the
timing model directly.

Operations carry an :class:`~repro.metrics.counters.OpKind` so the
Data/Map/GC split of Fig. 10 falls out of the counters, and an optional
``timed=False`` mode used during device aging (pre-conditioning must
not leave the chips busy or pollute measured counts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SSDConfig
from ..geometry import FlashGeometry
from ..metrics.counters import FlashOpCounters, OpKind
from ..obs.events import BadBlockRetired, FlashOp, MediaFault, ReadRetry
from .array import FlashArray
from .timing import ChipTimeline


class FlashService:
    """Single entry point for all flash operations of one device."""

    def __init__(self, cfg: SSDConfig, counters: FlashOpCounters | None = None):
        cfg.validate()
        self.cfg = cfg
        self.geom = FlashGeometry(cfg)
        self.array = FlashArray(self.geom)
        self.timeline = ChipTimeline(
            self.geom.num_chips, cfg.timing, cfg.chips_per_channel
        )
        self.counters = counters if counters is not None else FlashOpCounters()
        # memoized geometry divisor: chip_of_ppn on the per-page hot path
        self._pages_per_chip = self.geom.pages_per_chip
        # memoized timing scalars for the attribution segment boundaries
        self._read_ms = cfg.timing.read_ms
        self._transfer_ms = cfg.timing.transfer_ms
        #: observability event bus (repro.obs.events.EventBus) — installed
        #: by the engine when SimConfig.observability.enabled; FTL-side
        #: components share this reference, so disabled runs pay one
        #: `is None` branch per hook
        self.obs = None
        #: fault injector (repro.faults.FaultInjector) — installed by the
        #: engine when SimConfig.faults.enabled; same `is None` contract
        #: as ``obs``, so fault-free runs stay on the fast path
        self.faults = None
        #: latency-attribution recorder
        #: (repro.obs.attribution.AttributionRecorder) — installed by the
        #: engine when SimConfig.observability.attribution; same
        #: `is None` contract, so undecomposed runs pay one branch
        self.attr = None
        #: blocks that crossed the program-failure retirement threshold
        #: and await relocation of their valid pages; every GC check
        #: drains them first (``GarbageCollector._drain_retirements``)
        self.retire_pending: set[int] = set()

    # ------------------------------------------------------------------
    def read_page(
        self, ppn: int, now: float, kind: OpKind = OpKind.DATA, *, timed: bool = True
    ) -> float:
        """Read a valid page; returns completion time (``now`` if untimed).

        With fault injection on, timed reads draw raw bit errors from
        the page's RBER; errors beyond the ECC budget cost escalating
        read-retry steps on the chip, and errors surviving the whole
        retry table count as uncorrectable (the read still returns).
        """
        self.array.read(ppn)
        # inlined counters.count_read: one method call per page read is
        # measurable on the replay hot path
        c = self.counters
        c.reads[kind] += 1
        if kind is not OpKind.AGING:
            c._measured_reads += 1
        if not timed:
            finish = now
        else:
            chip = ppn // self._pages_per_chip
            attr = self.attr
            if attr is not None:
                wait_end = self.timeline.next_free(chip, now)
            finish = self.timeline.read(chip, now)
            base_finish = finish
            faults = self.faults
            if faults is not None:
                steps, uncorrectable = faults.read_outcome(ppn, now)
                if steps:
                    self.counters.read_retries += steps
                    finish = self.timeline.read_retries(chip, finish, steps)
                if uncorrectable:
                    self.counters.uncorrectable_reads += 1
                if steps or uncorrectable:
                    obs = self.obs
                    if obs is not None:
                        obs.emit(ReadRetry(
                            now, obs.current_request, ppn, steps,
                            uncorrectable,
                        ))
            if attr is not None:
                if kind is OpKind.MAP:
                    label = "map_read"
                else:
                    label = attr.read_label or "flash_read"
                if self._transfer_ms > 0:
                    segs = ((label, wait_end + self._read_ms),
                            ("bus_xfer", base_finish))
                else:
                    segs = ((label, base_finish),)
                if finish > base_finish:
                    segs += (("media_retry", finish),)
                attr.record(chip, now, wait_end, segs)
        obs = self.obs
        if obs is not None:
            obs.emit(FlashOp(
                now, obs.current_request, "read", kind.value,
                self.geom.chip_of_ppn(ppn), finish, ppn,
            ))
        return finish

    def program_page(
        self,
        ppn: int,
        rec: Optional[tuple[int, int, int, int]],
        now: float,
        kind: OpKind = OpKind.DATA,
        timed: bool = True,
        payload: Optional[dict] = None,
    ) -> float:
        """Program a free page with the record ``rec`` — the ``(kind,
        a, b, c)`` of :meth:`FlashArray.program`, None for a flash-level
        probe that keeps none — and, in oracle runs, its ``payload``
        stamps; returns completion time.

        With fault injection on, timed programs may report failure
        status; each failure is absorbed by an in-place reprogram pulse
        (extra chip time, data lands at the same PPN so mappings never
        move), and a block whose lifetime failure tally crosses
        ``FaultConfig.retire_after_program_fails`` is queued on
        :attr:`retire_pending` for bad-block retirement by GC.
        """
        self.array.program(ppn, *(rec or (0, 0, 0, 0)), payload)
        c = self.counters
        c.writes[kind] += 1
        if kind is not OpKind.AGING:
            c._measured_writes += 1
        if not timed:
            finish = now
        else:
            chip = ppn // self._pages_per_chip
            attr = self.attr
            if attr is not None:
                wait_end = self.timeline.program_start(chip, now)
            finish = self.timeline.program(chip, now)
            base_finish = finish
            faults = self.faults
            if faults is not None:
                attempts, failures = faults.program_attempts(ppn)
                if failures:
                    self.counters.program_fails += failures
                    finish = self.timeline.reprogram(chip, finish, attempts)
                    obs = self.obs
                    if obs is not None:
                        obs.emit(MediaFault(
                            now, obs.current_request, "program", ppn,
                        ))
                    if faults.note_program_failures(ppn, failures):
                        block = ppn // self.geom.pages_per_block
                        if not self.array.is_bad[block]:
                            self.retire_pending.add(block)
                faults.note_program(ppn, finish)
            if attr is not None:
                if self._transfer_ms > 0:
                    segs = (("bus_xfer", wait_end + self._transfer_ms),
                            ("flash_program", base_finish))
                else:
                    segs = (("flash_program", base_finish),)
                if finish > base_finish:
                    segs += (("media_retry", finish),)
                attr.record(chip, now, wait_end, segs)
        obs = self.obs
        if obs is not None:
            obs.emit(FlashOp(
                now, obs.current_request, "program", kind.value,
                self.geom.chip_of_ppn(ppn), finish, ppn,
            ))
        return finish

    def copy_run(
        self, src: np.ndarray, dst: int, now: float, kind: OpKind,
        *, timed: bool = True,
    ) -> float:
        """Move the valid pages ``src`` of one block onto the free run
        from ``dst`` on in another (:meth:`FlashArray.copy_run`), leaving
        counters and timelines where a :meth:`read_page` +
        :meth:`program_page` per page, in order, would — provided no
        event bus, fault injector, attribution recorder or payload stamp
        is there to see single operations.  Returns the last program's
        completion time."""
        self.array.copy_run(src, dst)
        n = len(src)
        c = self.counters
        c.reads[kind] += n
        c.writes[kind] += n
        if kind is not OpKind.AGING:
            c._measured_reads += n
            c._measured_writes += n
        finish = now
        if timed:
            # op by op: summed durations would round differently
            read, program = self.timeline.read, self.timeline.program
            src_chip = int(src[0]) // self._pages_per_chip
            dst_chip = dst // self._pages_per_chip
            for _ in range(n):
                read(src_chip, now)
                finish = program(dst_chip, now)
        return finish

    def erase_block(self, block: int, now: float, *, aging: bool = False) -> float:
        """Erase a block; returns completion time (untimed when aging).

        With fault injection on, a (non-aging) erase may report failure
        status: the command still occupies the chip, but the block is
        retired on the spot instead of returning to the free pool — its
        valid pages are already gone, since erase is only legal on
        fully-invalid blocks.
        """
        chip = self.geom.chip_of_plane(self.geom.plane_of_block(block))
        faults = self.faults
        if not aging and faults is not None and faults.erase_fails(block):
            finish = self.timeline.erase(chip, now)
            self.counters.erase_fails += 1
            attr = self.attr
            if attr is not None:
                attr.note_background(chip, finish)
            obs = self.obs
            if obs is not None:
                obs.emit(MediaFault(now, obs.current_request, "erase", block))
            self.retire(block, finish)
            return finish
        self.array.erase(block, aging=aging)
        self.counters.count_erase(aging=aging)
        if aging:
            finish = now
        else:
            finish = self.timeline.erase(chip, now)
            attr = self.attr
            if attr is not None:
                attr.note_background(chip, finish)
        obs = self.obs
        if obs is not None:
            obs.emit(FlashOp(
                now, obs.current_request, "erase",
                "aging" if aging else "data", chip, finish, block,
            ))
        return finish

    def invalidate(self, ppn: int) -> None:
        """Mark a valid page stale (no timing cost: metadata only)."""
        self.array.invalidate(ppn)

    def retire(self, block: int, now: float, relocated: int = 0) -> None:
        """Permanently retire ``block`` (bad-block path of
        :mod:`repro.faults`); callers relocate its valid pages first.

        ``relocated`` is how many valid pages were moved off the block,
        carried into the :class:`~repro.obs.events.BadBlockRetired`
        event for observability consumers.
        """
        self.array.retire_block(block)
        self.counters.bad_blocks += 1
        self.retire_pending.discard(block)
        obs = self.obs
        if obs is not None:
            obs.emit(BadBlockRetired(
                now, block, self.geom.plane_of_block(block), relocated,
            ))

    # -- pool passthroughs ------------------------------------------------
    def free_fraction(self, plane: int) -> float:
        """Free-block share of ``plane`` (GC trigger input)."""
        return self.array.free_fraction(plane)

    def pop_free_block(self, plane: int) -> int:
        """Take a fully-erased block from ``plane``'s pool."""
        return self.array.pop_free_block(plane)

    @property
    def num_planes(self) -> int:
        return self.geom.num_planes
