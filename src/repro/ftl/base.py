"""Shared FTL machinery: PMT storage, RMW composition, GC relocation,
translation-page programming, and the host-facing API contract.

Concrete schemes (:mod:`.pagemap`, :mod:`.mrsm`,
:mod:`repro.core.across`) implement :meth:`BaseFTL.write` /
:meth:`BaseFTL.read` in terms of the helpers here.

Sector bookkeeping
------------------
Each LPN carries a *PMT mask*: a bitmask of the sectors whose newest
copy lives in the normally-mapped page ``pmt[lpn]``.  The baseline FTL
has no other storage, so its mask equals "all sectors ever written".
Across-FTL additionally shadows a sector range per across area; those
bits are removed from the PMT mask while the area exists (see
:mod:`repro.core.across`).  Masks make read composition and
read-modify-write decisions O(1) bit arithmetic.

Data versions
-------------
A host write carries one oracle version (an int, or None when the
oracle is off).  When ``track_payload`` is on, every programmed page
stores a dict of ``absolute_sector -> version stamp`` for the sectors
it holds — the writing request's version for the sectors it wrote,
carried-over stamps for the rest — and :meth:`read` returns the stamps
it found.  The simulation oracle (:mod:`repro.sim.oracle`) compares
them against ground truth — this is how we prove all three schemes
return the newest data through merges, rollbacks and GC.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from typing import Optional

import numpy as np

from ..config import SSDConfig
from ..errors import MappingError
from ..flash.array import PAGE_VALID
from ..flash.service import FlashService
from ..metrics.counters import OpKind
from ..obs.events import FTLDecision
from ..units import split_extent
from .allocator import WriteAllocator
from .gc import GarbageCollector
from .mapping_cache import MappingCache
from .meta import KIND_DATA, KIND_MAP


def mask_range(lo: int, hi: int) -> int:
    """Bitmask with bits ``[lo, hi)`` set (page-relative sectors)."""
    return ((1 << (hi - lo)) - 1) << lo


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BaseFTL(ABC):
    """Abstract flash translation layer."""

    #: canonical scheme id ("ftl" / "mrsm" / "across")
    name: str = "base"
    #: bytes per PMT entry used for the Fig. 12a footprint model
    PMT_ENTRY_BYTES = 8

    def __init__(
        self,
        service: FlashService,
        *,
        track_payload: bool = False,
    ):
        self.service = service
        self.cfg: SSDConfig = service.cfg
        self.geom = service.geom
        self.counters = service.counters
        self.spp = self.cfg.sectors_per_page
        self.track_payload = track_payload
        self.logical_pages = self.cfg.logical_pages
        #: DRAM budget for mapping entries; defaults to "the baseline
        #: page table exactly fits" (paper §4.1 / Fig. 12 discussion).
        self.dram_entries = (
            self.cfg.mapping_cache_entries
            if self.cfg.mapping_cache_entries is not None
            else self.logical_pages
        )
        self.allocator = WriteAllocator(service)
        self.gc = GarbageCollector(
            service,
            self.allocator,
            self.cfg.gc_threshold,
            self.cfg.gc_restore,
            policy=self.cfg.gc_policy,
        )
        #: toggled by the engine during device pre-conditioning: flash
        #: ops become untimed and are counted under OpKind.AGING.
        self.aging = False

        #: LPN -> PPN of the normally-mapped page (-1 = none).  The raw
        #: table is a flat ``array('q')`` — scalar loads/stores on the
        #: per-piece write/read hot path are several times cheaper than
        #: numpy scalar indexing — while ``self.pmt`` is a zero-copy
        #: numpy view over the same memory for vectorised consumers
        #: (tests, examples, ``mapping_table_bytes``).
        self._pmt = array("q", [-1]) * self.logical_pages
        self.pmt = np.frombuffer(self._pmt, dtype=np.int64)
        #: LPN -> bitmask of sectors whose newest copy is in pmt[lpn]
        #: (same raw-buffer + view layout; masks are plain Python ints)
        self._pmt_mask = array("Q", bytes(8 * self.logical_pages))
        self.pmt_mask = np.frombuffer(self._pmt_mask, dtype=np.uint64)
        #: flash location of spilled translation pages, one int-keyed
        #: dict per table: ``table_id -> {tvpn -> ppn}`` (no tuple keys
        #: rebuilt per map/unmap)
        self._map_ppn: dict[int, dict[int, int]] = {}
        #: every mapping cache this scheme built, by table id (the
        #: device-state seam walks them)
        self.map_caches: dict[int, MappingCache] = {}
        #: the keyword arguments :func:`repro.ftl.make_ftl` built this
        #: FTL with — part of an aged-device image's key; None for a
        #: directly constructed FTL, which is therefore never imaged
        self.ftl_kw: dict | None = None

    # ------------------------------------------------------------------
    # host-facing API
    # ------------------------------------------------------------------
    @abstractmethod
    def write(
        self, offset: int, size: int, now: float, version: Optional[int] = None
    ) -> float:
        """Service a write of ``size`` sectors at sector ``offset``.

        ``version`` is the oracle version stamped on every written
        sector (None when the oracle is off).  Returns the completion
        time of the request.
        """

    @abstractmethod
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Service a read; returns (completion time, found stamps)."""

    @abstractmethod
    def mapping_table_bytes(self) -> int:
        """Current mapping-table footprint (Fig. 12a)."""

    def trim(self, offset: int, size: int, now: float) -> float:
        """TRIM/discard ``size`` sectors at ``offset``: the data is
        dropped, pages whose last live sectors are trimmed are
        invalidated (making them free GC fodder).  Returns completion
        time (a DRAM-speed metadata operation).

        The base implementation handles normally page-mapped data;
        schemes with extra state (across areas, region slots) override
        and chain up.
        """
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            self._trim_pmt_piece(lpn, mask_range(rel_lo, rel_lo + count))
        self.counters.count_dram()
        return now + self.cfg.timing.cache_access_ms

    def _trim_pmt_piece(self, lpn: int, mask: int) -> None:
        remaining = self._pmt_mask[lpn] & ~mask
        self._pmt_mask[lpn] = remaining
        if remaining == 0 and self._pmt[lpn] >= 0:
            self.service.invalidate(self._pmt[lpn])
            self._pmt[lpn] = -1

    def stats(self) -> dict:
        """Scheme-specific statistics merged into the run report."""
        out = {
            "gc_collections": self.gc.collections,
            "gc_migrated_pages": self.gc.migrated_pages,
            # includes aging-time passes; the measured-run count is
            # counters.gc_stalls
            "gc_stall_passes": self.gc.stalls,
        }
        # policy-specific tallies only appear for non-default policies
        # so default-config report digests stay byte-identical
        if self.gc.policy != "greedy":
            out["gc_policy"] = self.gc.policy
            if self.gc.slices:
                out["gc_slice_passes"] = self.gc.slices
            if self.gc.deferrals:
                out["gc_deferral_passes"] = self.gc.deferrals
        return out

    def flush_metadata(self, now: float) -> float:
        """End-of-run barrier: write back dirty translation pages."""
        return now

    # ------------------------------------------------------------------
    # op-kind / timing helpers honouring aging mode
    # ------------------------------------------------------------------
    #: ``timed`` is the plain-attribute mirror of ``not aging``: it is
    #: read on every flash op, so it must be an attribute load, not a
    #: property call.  The ``aging`` property keeps the two in sync.
    timed: bool = True

    @property
    def aging(self) -> bool:
        return not self.timed

    @aging.setter
    def aging(self, value: bool) -> None:
        self.timed = not value

    def _kind(self, kind: OpKind) -> OpKind:
        return kind if self.timed else OpKind.AGING

    def _emit_decision(self, path: str, lpn: int, now: float) -> None:
        """Publish which servicing path was taken (no-op when
        observability is off: the caller already paid the one branch)."""
        obs = self.service.obs
        obs.emit(FTLDecision(now, obs.current_request, path, lpn))

    # ------------------------------------------------------------------
    # programming & relocation
    # ------------------------------------------------------------------
    def _relocate(self, old_ppn: int, now: float, timed: bool) -> float:
        """Move one valid page: :meth:`_relocate_pages` of a list of one."""
        return self._relocate_pages([old_ppn], now, timed)

    def _relocate_pages(self, ppns, now: float, timed: bool) -> float:
        """GC relocation: move the valid pages ``ppns`` — ascending, all
        in one block — to the active block of their plane and fix the
        mapping tables; returns the last program's completion time.

        Destinations are what one ``allocate_in_plane`` per page hands
        out: runs ending with the plane's active block, each moved
        as one :meth:`FlashService.copy_run`.  A page the exhausted
        plane cannot take spills to ``allocator.allocate`` and moves by
        itself through ``read_page`` / ``program_page`` — as every page
        does while the event bus, the fault injector, attribution or
        payload stamps need to see single operations.  The tables are
        remapped once per record kind (:meth:`_remap`), afterwards:
        nothing in between reads them.
        """
        service = self.service
        arr = service.array
        allocator = self.allocator
        src = np.asarray(ppns, np.int64)
        n = len(src)
        dst = np.empty(n, np.int64)
        plane = int(src[0]) // self.geom.pages_per_plane
        ppb = self.geom.pages_per_block
        kind = OpKind.GC if self.timed else OpKind.AGING
        per_page = (
            service.obs is not None or service.faults is not None
            or service.attr is not None or bool(arr.payloads)
        )
        finish = now
        i = 0
        while i < n:
            new = allocator.allocate_in_plane(plane)
            if new is None or per_page:
                old = int(src[i])
                service.read_page(old, now, kind, timed=timed)
                if new is None:
                    new = allocator.allocate()
                t = service.program_page(
                    new, arr.record(old), now, kind,
                    timed=timed, payload=arr.payloads.get(old),
                )
                service.invalidate(old)
                count = 1
            else:
                count = min(n - i, ppb - new % ppb)
                t = service.copy_run(
                    src[i : i + count], new, now, kind, timed=timed
                )
            dst[i : i + count] = np.arange(new, new + count)
            i += count
            if t > finish:
                finish = t
        kinds = arr.kind[dst]
        for code in sorted(set(kinds.tolist())):
            moved = kinds == code
            self._remap(code, src[moved], dst[moved])
        return finish

    def _remap(self, code: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Point the tables at ``dst`` for the pages of record kind
        ``code`` that GC moved there from ``src``; a table that does
        not name the old page is a :class:`MappingError`.  Schemes with
        more page kinds extend this and chain up."""
        arr = self.service.array
        if code == KIND_DATA:
            lpns = arr.a[dst]
            stale = np.flatnonzero(self.pmt[lpns] != src)
            if stale.size:
                at = stale[0]
                raise MappingError(
                    f"GC found data page for LPN {int(lpns[at])} at PPN "
                    f"{int(src[at])} but PMT points to "
                    f"{int(self.pmt[lpns[at]])}"
                )
            self.pmt[lpns] = dst
        elif code == KIND_MAP:
            for old, new, table_id, tvpn in zip(
                src.tolist(), dst.tolist(),
                arr.a[dst].tolist(), arr.b[dst].tolist(),
            ):
                table = self._map_ppn.get(table_id)
                if table is None or table.get(tvpn) != old:
                    raise MappingError(
                        f"stale map page {(table_id, tvpn)} at PPN {old}"
                    )
                table[tvpn] = new
        else:
            raise MappingError(
                f"scheme {self.name!r} cannot relocate pages of kind {code}"
            )

    # ------------------------------------------------------------------
    # translation-page I/O for MappingCache (the cache's owner protocol)
    # ------------------------------------------------------------------
    def _make_cache(
        self,
        table_id: int,
        *,
        entries_per_page: int,
        capacity_entries: int | None,
        tree: bool = False,
    ) -> MappingCache:
        cache = MappingCache(
            self.service,
            entries_per_page=entries_per_page,
            capacity_entries=capacity_entries,
            tree=tree,
            table_id=table_id,
        )
        self.map_caches[table_id] = cache
        return cache

    def program_map_page(
        self, table_id: int, tvpn: int, now: float, timed: bool
    ) -> float:
        """Write translation page ``tvpn`` of table ``table_id`` back to
        flash, invalidating its previous copy; returns the program's
        completion time.  The per-table dict is looked up on every call
        so an external table wipe (``_map_ppn.clear()`` in recovery
        tests and examples) never leaves a stale one in use."""
        table = self._map_ppn.setdefault(table_id, {})
        old = table.get(tvpn)
        if old is not None:
            self.service.invalidate(old)
            del table[tvpn]
        # translation-page write-back is background work: the
        # controller schedules it into chip idle periods, so it is
        # counted (Fig. 10's Map share, GC pressure) but does not
        # occupy the foreground timeline
        base_timed = self.timed
        ppn = self.allocator.allocate()
        finish = self.service.program_page(
            ppn, (KIND_MAP, table_id, tvpn, 0), now,
            OpKind.MAP if base_timed else OpKind.AGING, False,
        )
        table[tvpn] = ppn
        self.gc.maybe_collect(
            self, ppn // self.geom.pages_per_plane, now, base_timed
        )
        return finish

    def read_map_page(
        self, table_id: int, tvpn: int, now: float, timed: bool
    ) -> float:
        """Fetch the flash-resident copy of translation page ``tvpn`` of
        table ``table_id``; returns the read's completion time."""
        ppn = self._map_ppn[table_id][tvpn]
        return self.service.read_page(
            ppn, now, self._kind(OpKind.MAP), timed=timed
        )

    # ------------------------------------------------------------------
    # normal (page-mapped) data path shared by schemes
    # ------------------------------------------------------------------
    def _write_data_page(
        self,
        lpn: int,
        rel_lo: int,
        rel_hi: int,
        now: float,
        version: Optional[int],
        *,
        extra_mask: int = 0,
        extra_payload: Optional[dict] = None,
    ) -> float:
        """Write sectors ``[rel_lo, rel_hi)`` (page-relative) of ``lpn``
        through the normal page-mapped path, performing read-modify-write
        when the page already holds other live sectors.

        ``extra_mask``/``extra_payload`` inject additional sectors that
        are already in hand (used by Across-FTL rollback, which folds the
        across-area data back in without re-reading it here).
        Returns the completion time.
        """
        service = self.service
        timed = self.timed
        new_mask = (((1 << (rel_hi - rel_lo)) - 1) << rel_lo) | extra_mask
        old_ppn = self._pmt[lpn]
        old_mask = self._pmt_mask[lpn]
        retained = old_mask & ~new_mask
        if service.obs is not None:
            self._emit_decision(
                "rmw" if (retained and old_ppn >= 0) else "page_write",
                lpn, now,
            )
        finish = now
        payload: Optional[dict] = None

        if self.track_payload:
            payload = {}
        if retained and old_ppn >= 0:
            # RMW: the old page holds live sectors the new page must keep
            attr = service.attr
            if attr is not None:
                attr.read_label = "update_read"
            finish = service.read_page(
                old_ppn, now,
                OpKind.DATA if timed else OpKind.AGING, timed=timed,
            )
            if attr is not None:
                attr.read_label = None
            if timed:
                self.counters.update_reads += 1
            if payload is not None:
                old_payload = service.array.payloads.get(old_ppn)
                if old_payload:
                    base = lpn * self.spp
                    for bit in iter_bits(retained):
                        sec = base + bit
                        if sec in old_payload:
                            payload[sec] = old_payload[sec]
        if payload is not None:
            if extra_payload:
                payload.update(extra_payload)
            if version is not None:
                base = lpn * self.spp
                for sec in range(base + rel_lo, base + rel_hi):
                    payload[sec] = version

        if old_ppn >= 0:
            service.invalidate(old_ppn)
        new_ppn = self.allocator.allocate()
        t = service.program_page(
            new_ppn, (KIND_DATA, lpn, old_mask | new_mask, 0), finish,
            OpKind.DATA if timed else OpKind.AGING, timed, payload,
        )
        self._pmt[lpn] = new_ppn
        self._pmt_mask[lpn] = old_mask | new_mask
        self.gc.maybe_collect(
            self, new_ppn // self.geom.pages_per_plane, finish, timed
        )
        return t if t > finish else finish

    def _read_stamps_from(self, ppn: int, sectors: list[int], out: dict) -> None:
        """Copy the stamps of ``sectors`` found at ``ppn`` into ``out``."""
        payload = self.service.array.payloads.get(ppn)
        if payload:
            for sec in sectors:
                if sec in payload:
                    out[sec] = payload[sec]

    # ------------------------------------------------------------------
    # device-state seam (docs/architecture.md)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """This scheme's DRAM tables as copied flat arrays: PMT, PMT
        masks and the flash locations of spilled translation pages
        (``map_tables`` keeps the table ids, an empty table included).
        Schemes with more tables extend the dict."""
        rows = [
            (table_id, tvpn, ppn)
            for table_id, table in self._map_ppn.items()
            for tvpn, ppn in table.items()
        ]
        return {
            "pmt": self.pmt.copy(),
            "pmt_mask": self.pmt_mask.copy(),
            "map_tables": list(self._map_ppn),
            "map_ppn": np.array(rows, np.int64).reshape(-1, 3),
        }

    def load_state(self, s: dict) -> None:
        """Overwrite the tables with a :meth:`state` snapshot, in place
        (``pmt`` / ``pmt_mask`` are numpy views over the raw buffers the
        hot path indexes)."""
        self.pmt[:] = s["pmt"]
        self.pmt_mask[:] = s["pmt_mask"]
        self._map_ppn.clear()
        for table_id in s["map_tables"]:
            self._map_ppn[table_id] = {}
        for table_id, tvpn, ppn in s["map_ppn"].tolist():
            self._map_ppn[table_id][tvpn] = ppn

    # ------------------------------------------------------------------
    # power-loss recovery
    # ------------------------------------------------------------------
    def rebuild_from_flash(self) -> int:
        """Reconstruct every mapping table by scanning the valid pages'
        out-of-band records (power-loss recovery).

        Returns the number of pages scanned.  Caveat mirrors real
        devices: TRIMs applied only in DRAM are forgotten — trimmed
        sectors whose pages still hold them reappear.
        """
        self.pmt.fill(-1)
        self.pmt_mask.fill(0)
        self._map_ppn.clear()
        self._rebuild_reset()
        arr = self.service.array
        kinds = arr.kind
        data = np.flatnonzero(kinds == KIND_DATA)
        lpns = arr.a[data]
        claims = np.bincount(lpns, minlength=1)
        if claims.max() > 1:
            raise MappingError(
                f"two valid data pages claim LPN {int(claims.argmax())}"
            )
        self.pmt[lpns] = data
        self.pmt_mask[lpns] = arr.b[data]
        others = np.flatnonzero((kinds != KIND_DATA) & (kinds != 0))
        for ppn in others.tolist():
            if kinds[ppn] == KIND_MAP:
                _, table_id, tvpn, _ = arr.record(ppn)
                self._map_ppn.setdefault(table_id, {})[tvpn] = ppn
            else:
                self._rebuild_page(ppn, arr.meta(ppn))
        self._rebuild_finish()
        return data.size + others.size

    def _rebuild_reset(self) -> None:
        """Scheme hook: clear scheme-specific tables before the scan."""

    def _rebuild_page(self, ppn: int, meta) -> None:
        raise MappingError(
            f"scheme {self.name!r} cannot rebuild from {meta!r}"
        )

    def _rebuild_finish(self) -> None:
        """Scheme hook: fix-ups after the scan."""

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Cross-check PMT against the flash array (tests and
        :mod:`repro.check` sweeps).

        Vectorised over the PMT views and the array's record columns,
        so it stays affordable at a per-N-requests cadence.
        """
        arr = self.service.array
        mapped = self.pmt >= 0
        orphans = np.nonzero(~mapped & (self.pmt_mask != 0))[0]
        if orphans.size:
            raise MappingError(
                f"LPN {int(orphans[0])} has mask bits but no page"
            )
        lpns = np.nonzero(mapped)[0]
        if not lpns.size:
            return
        ppns = self.pmt[lpns]
        stale = np.nonzero(arr.page_state[ppns] != PAGE_VALID)[0]
        if stale.size:
            raise MappingError(
                f"PMT[{int(lpns[stale[0]])}] -> invalid PPN "
                f"{int(ppns[stale[0]])}"
            )
        foreign = np.nonzero((arr.kind[ppns] != KIND_DATA) | (arr.a[ppns] != lpns))[0]
        if foreign.size:
            at = foreign[0]
            raise MappingError(
                f"PMT[{int(lpns[at])}] -> foreign page "
                f"{arr.meta(int(ppns[at]))!r}"
            )

    def referenced_ppns(self):
        """Yield ``(ppn, owner)`` for every flash page this FTL's tables
        reference: PMT data pages plus spilled translation pages.

        Schemes with additional tables (across areas, region pages)
        override and chain up.  The :mod:`repro.check` reachability
        sweep compares these claims against the array's valid pages and
        requires every valid page to be claimed by exactly one owner.
        """
        pmt = self._pmt
        for lpn in np.nonzero(self.pmt >= 0)[0].tolist():
            yield pmt[lpn], f"pmt[{lpn}]"
        for table_id, table in self._map_ppn.items():
            for tvpn, ppn in table.items():
                yield ppn, f"map[{table_id}][{tvpn}]"
