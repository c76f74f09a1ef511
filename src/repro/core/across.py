"""Across-FTL: re-aligning across-page requests (paper §3).

The scheme extends the baseline page-mapping FTL with a second-level
**across-page mapping table** (AMT).  An across-page write — size at
most one page, spanning two logical pages — is *re-aligned*: its whole
extent goes to one freshly allocated physical page (the *across-page
area*), and both spanned LPNs gain an ``AIdx`` reference to the AMT
entry.  Reads falling inside the area are served with a single flash
read (*direct read*); reads exceeding it also fetch the normally-mapped
pages (*merged read*).

Updates that overlap a live area follow paper §3.3.1:

* **AMerge** — if the union of the area and the update still fits one
  page, merge and re-program the area (a *Profitable* AMerge when the
  update itself is an across-page request, otherwise *Unprofitable*);
* **ARollback** — otherwise, fold the area's data back into the two
  normally-mapped pages, clear the AMT entry, and service the update
  the normal way.

Sector bookkeeping invariant (checked by ``check_invariants``): for any
LPN, the bits of ``pmt_mask`` (newest copy in the normal page) and of
its area range (newest copy in the across page) are disjoint, and their
union is exactly the set of sectors ever written.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..errors import MappingError
from ..ftl.base import BaseFTL, iter_bits, mask_range
from ..ftl.meta import KIND_ACROSS
from ..metrics.counters import OpKind
from ..units import lpn_range, split_extent
from .amt import AMT_ENTRY_BYTES, AcrossMappingTable

#: modelled bytes of the AIdx field added to every PMT entry (Fig. 5)
AIDX_FIELD_BYTES = 4


@dataclass
class AcrossStats:
    """Across-path statistics behind Fig. 8 and §4.2.1."""

    direct_writes: int = 0
    profitable_amerge: int = 0
    unprofitable_amerge: int = 0
    rollbacks: int = 0
    direct_reads: int = 0
    merged_read_requests: int = 0
    #: areas created during the measured run (aging-time creations are
    #: excluded, like every other measured statistic)
    areas_created: int = 0

    @property
    def across_writes(self) -> int:
        return self.direct_writes + self.profitable_amerge + self.unprofitable_amerge

    def rollback_ratio(self, areas_created: int) -> float:
        """Areas rolled back / areas created (paper avg 3.9%)."""
        return self.rollbacks / areas_created if areas_created else 0.0

    def distribution(self) -> dict[str, float]:
        """Fig. 8(b): share of each across-write class."""
        total = self.across_writes
        if not total:
            return {"direct": 0.0, "profitable": 0.0, "unprofitable": 0.0}
        return {
            "direct": self.direct_writes / total,
            "profitable": self.profitable_amerge / total,
            "unprofitable": self.unprofitable_amerge / total,
        }


class AcrossFTL(BaseFTL):
    """The paper's FTL scheme with across-page re-alignment."""

    name = "across"

    def __init__(
        self,
        service,
        *,
        amerge_enabled: bool = True,
        amt_cache_entries: int | None = -1,
        **kw,
    ):
        super().__init__(service, **kw)
        if amt_cache_entries == -1:
            # default: the AMT gets a slice of DRAM proportional to the
            # device (the paper's Fig. 12a space overhead of ~1.4x the
            # baseline table includes the AMT); spill still happens on
            # area-heavy workloads, giving the small Map shares of
            # Fig. 10 (2.6% writes / 0.74% reads)
            amt_cache_entries = max(4096, self.dram_entries // 16)
        #: ablation knob (bench_ablation_amerge): with AMerge disabled,
        #: every overlapping update rolls the area back.
        self.amerge_enabled = amerge_enabled
        self.amt = AcrossMappingTable()
        #: LPN -> AIdx of the area covering it (the PMT AIdx field; -1 =
        #: none), in the raw-buffer + zero-copy-view layout of the PMT
        self._aidx = array("q", [-1]) * self.logical_pages
        self.aidx = np.frombuffer(self._aidx, dtype=np.int64)
        self.across_stats = AcrossStats()

        entries_per_page = max(1, self.cfg.page_size_bytes // self.PMT_ENTRY_BYTES)
        self._pmt_cache = self._make_cache(
            table_id=0,
            entries_per_page=entries_per_page,
            capacity_entries=self.dram_entries,
        )
        amt_epp = max(1, self.cfg.page_size_bytes // AMT_ENTRY_BYTES)
        self._amt_cache = self._make_cache(
            table_id=2,
            entries_per_page=amt_epp,
            capacity_entries=amt_cache_entries,
        )

    # ==================================================================
    # mask helpers
    # ==================================================================
    def _area_rel_mask(self, lpn: int, start: int, end: int) -> int:
        """Page-relative mask of sectors of ``lpn`` inside [start, end)."""
        page_lo = lpn * self.spp
        page_hi = page_lo + self.spp
        lo = max(start, page_lo)
        hi = min(end, page_hi)
        if lo >= hi:
            return 0
        return mask_range(lo - page_lo, hi - page_lo)

    def _shadow_pmt(self, lpn: int, rel_mask: int) -> None:
        """Remove sectors now living in an across area from the normal
        page's live set; drop the normal page entirely if emptied."""
        remaining = self._pmt_mask[lpn] & ~rel_mask
        self._pmt_mask[lpn] = remaining
        if remaining == 0 and self._pmt[lpn] >= 0:
            self.service.invalidate(self._pmt[lpn])
            self._pmt[lpn] = -1

    # ==================================================================
    # write routine (paper §3.3.1)
    # ==================================================================
    def write(
        self, offset: int, size: int, now: float, version: Optional[int] = None
    ) -> float:
        """Service a write: across-page requests take the re-alignment
        path; everything else is page-mapped with area interactions
        (AMerge/ARollback) handled per overlapping piece."""
        spp = self.spp
        if size <= 0:
            raise ValueError(f"extent size must be positive, got {size}")
        lpn = offset // spp
        rel_lo = offset - lpn * spp
        rel_end = rel_lo + size
        if rel_end <= spp:
            # single-page piece (the dominant replay case)
            return self._write_piece(lpn, rel_lo, rel_end, now, version)
        if size <= spp:
            # spans exactly two pages: the across-page path
            return self._write_across(offset, size, now, version)
        finish = now
        for lpn, rel_lo, count in split_extent(offset, size, spp):
            t = self._write_piece(lpn, rel_lo, rel_lo + count, now, version)
            if t > finish:
                finish = t
        return finish

    # ------------------------------------------------------------------
    def _write_piece(
        self, lpn: int, rel_lo: int, rel_hi: int, now: float, version: Optional[int]
    ) -> float:
        """One per-LPN piece of a non-across write."""
        t = self._pmt_cache.access(self, lpn, now, True, self.timed)
        if t > now:
            now = t
        aidx = self._aidx[lpn]
        if aidx >= 0:
            entry = self.amt.get(aidx)
            amask = self._area_rel_mask(lpn, entry.start, entry.end)
            piece_mask = ((1 << (rel_hi - rel_lo)) - 1) << rel_lo
            if piece_mask & amask:
                # the update overlaps the remapped across-page data
                abs_lo = lpn * self.spp + rel_lo
                abs_hi = lpn * self.spp + rel_hi
                u_lo = min(entry.start, abs_lo)
                u_hi = max(entry.end, abs_hi)
                if self.amerge_enabled and u_hi - u_lo <= self.spp:
                    return self._amerge(
                        entry, abs_lo, abs_hi, now, version, profitable=False
                    )
                return self._rollback(
                    entry, now, version, new_pieces={lpn: (rel_lo, rel_hi)}
                )
        # plain page-mapped update, possibly with read-modify-write
        return self._write_data_page(lpn, rel_lo, rel_hi, now, version)

    # ------------------------------------------------------------------
    def _write_across(
        self, offset: int, size: int, now: float, version: Optional[int]
    ) -> float:
        l0, l_end = lpn_range(offset, size, self.spp)
        l1 = l0 + 1
        t0 = self._pmt_cache.access(self, l0, now, True, self.timed)
        t1 = self._pmt_cache.access(self, l1, now, True, self.timed)
        now = max(now, t0, t1)
        a0 = self._aidx[l0]
        a1 = self._aidx[l1]

        if a0 >= 0 and a0 == a1:
            # an area already covers exactly this LPN pair: update it
            entry = self.amt.get(a0)
            u_lo = min(entry.start, offset)
            u_hi = max(entry.end, offset + size)
            if self.amerge_enabled and u_hi - u_lo <= self.spp:
                return self._amerge(
                    entry, offset, offset + size, now, version, profitable=True
                )
            return self._rollback(
                entry,
                now,
                version,
                new_pieces=self._pieces_by_lpn(offset, size),
            )

        # conflicting neighbour areas (an LPN can hold only one AIdx):
        # roll them back, then re-align the new request
        finish = now
        for aidx in {a for a in (a0, a1) if a >= 0}:
            entry = self.amt.get(aidx)
            finish = max(finish, self._rollback(entry, now, None))
        return max(finish, self._direct_write(offset, size, finish, version))

    def _pieces_by_lpn(self, offset: int, size: int) -> dict[int, tuple[int, int]]:
        return {
            lpn: (rel_lo, rel_lo + count)
            for lpn, rel_lo, count in split_extent(offset, size, self.spp)
        }

    # ------------------------------------------------------------------
    def _direct_write(
        self, offset: int, size: int, now: float, version: Optional[int]
    ) -> float:
        """Across-page *direct write*: re-align onto one fresh page."""
        l0 = offset // self.spp
        payload = None
        if self.track_payload:
            payload = {}
            if version is not None:
                for sec in range(offset, offset + size):
                    payload[sec] = version
        if self.service.obs is not None:
            self._emit_decision("direct", l0, now)
        # the entry first: the page's record carries its index
        entry = self.amt.create(l0, offset, size, -1)
        timed = self.timed
        ppn = self.allocator.allocate()
        finish = self.service.program_page(
            ppn, (KIND_ACROSS, entry.aidx, offset, size), now,
            OpKind.DATA if timed else OpKind.AGING, timed, payload,
        )
        entry.appn = ppn
        self._aidx[l0] = self._aidx[l0 + 1] = entry.aidx
        # the AMT names the area before a GC pass can relocate it
        self.gc.maybe_collect(
            self, ppn // self.geom.pages_per_plane, now, timed
        )
        for lpn in entry.lpns:
            self._shadow_pmt(lpn, self._area_rel_mask(lpn, offset, offset + size))
        t = self._amt_cache.access(self, entry.aidx, now, True, self.timed)
        if not self.aging:
            self.across_stats.direct_writes += 1
            self.across_stats.areas_created += 1
        return max(finish, t)

    # ------------------------------------------------------------------
    def _amerge(
        self,
        entry,
        new_lo: int,
        new_hi: int,
        now: float,
        version: Optional[int],
        *,
        profitable: bool,
    ) -> float:
        """Across-page merged write (paper Fig. 6, middle)."""
        u_lo = min(entry.start, new_lo)
        u_hi = max(entry.end, new_hi)
        if u_hi - u_lo > self.spp:
            raise MappingError("AMerge called with a union larger than a page")
        if self.service.obs is not None:
            self._emit_decision("amerge", entry.lpn0, now)
        finish = now
        t = self._amt_cache.access(self, entry.aidx, now, True, self.timed)
        finish = max(finish, t)

        retained_lo, retained_hi = entry.start, entry.end
        fully_covered = new_lo <= retained_lo and retained_hi <= new_hi
        payload = None
        if self.track_payload:
            payload = {}
        if not fully_covered:
            # merging needs the old across data
            attr = self.service.attr
            if attr is not None:
                attr.read_label = "update_read"
            t = self.service.read_page(
                entry.appn, now, self._kind(OpKind.DATA), timed=self.timed
            )
            if attr is not None:
                attr.read_label = None
            if not self.aging:
                self.counters.update_reads += 1
            finish = max(finish, t)
            if payload is not None:
                old_payload = self.service.array.payloads.get(entry.appn)
                if old_payload:
                    for sec in range(retained_lo, retained_hi):
                        if (new_lo <= sec < new_hi) or sec not in old_payload:
                            continue
                        payload[sec] = old_payload[sec]
        if payload is not None and version is not None:
            for sec in range(new_lo, new_hi):
                payload[sec] = version

        self.service.invalidate(entry.appn)
        timed = self.timed
        ppn = self.allocator.allocate()
        t = self.service.program_page(
            ppn, (KIND_ACROSS, entry.aidx, u_lo, u_hi - u_lo), finish,
            OpKind.DATA if timed else OpKind.AGING, timed, payload,
        )
        entry.start, entry.size, entry.appn = u_lo, u_hi - u_lo, ppn
        # as in _direct_write: the AMT names the page before the check
        self.gc.maybe_collect(
            self, ppn // self.geom.pages_per_plane, finish, timed
        )
        finish = max(finish, t)
        for lpn in entry.lpns:
            self._shadow_pmt(lpn, self._area_rel_mask(lpn, u_lo, u_hi))
        if not self.aging:
            if profitable:
                self.across_stats.profitable_amerge += 1
            else:
                self.across_stats.unprofitable_amerge += 1
        return finish

    # ------------------------------------------------------------------
    def _rollback(
        self,
        entry,
        now: float,
        version: Optional[int],
        new_pieces: Optional[dict[int, tuple[int, int]]] = None,
    ) -> float:
        """Across-page rollback write (paper Fig. 6, right): merge the
        across data (plus any triggering update data) back into the two
        normally-mapped pages and clear the area."""
        new_pieces = new_pieces or {}
        if self.service.obs is not None:
            self._emit_decision("arollback", entry.lpn0, now)
        t = self._amt_cache.access(self, entry.aidx, now, True, self.timed)
        finish = max(now, t)
        # the across page's data is needed for every sector the update
        # does not overwrite
        attr = self.service.attr
        if attr is not None:
            attr.read_label = "update_read"
        t = self.service.read_page(
            entry.appn, now, self._kind(OpKind.DATA), timed=self.timed
        )
        if attr is not None:
            attr.read_label = None
        if not self.aging:
            self.counters.update_reads += 1
        finish = max(finish, t)
        area_payload = self.service.array.payloads.get(entry.appn)

        for lpn in entry.lpns:
            amask = self._area_rel_mask(lpn, entry.start, entry.end)
            rel_lo, rel_hi = new_pieces.get(lpn, (0, 0))
            new_mask = mask_range(rel_lo, rel_hi)
            keep_mask = amask & ~new_mask
            extra_payload = None
            if self.track_payload:
                extra_payload = {}
                if area_payload:
                    base = lpn * self.spp
                    for bit in iter_bits(keep_mask):
                        sec = base + bit
                        if sec in area_payload:
                            extra_payload[sec] = area_payload[sec]
            t = self._write_data_page(
                lpn,
                rel_lo,
                rel_hi,
                finish,
                version,
                extra_mask=keep_mask,
                extra_payload=extra_payload,
            )
            finish = max(finish, t)
            self._aidx[lpn] = -1
        self.service.invalidate(entry.appn)
        self.amt.release(entry.aidx)
        if not self.aging:
            self.across_stats.rollbacks += 1
        return finish

    # ==================================================================
    # read routine (paper §3.3.2)
    # ==================================================================
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Service a read: direct read when the extent sits inside an
        across area, merged read when it spills beyond (paper §3.3.2)."""
        finish = now
        found: Optional[dict] = {} if self.track_payload else None
        #: ppn -> sectors wanted from it (None unless payloads are
        #: tracked: only the stamp lookup reads the sectors)
        plan: dict[int, Optional[list[int]]] = {}
        touched_area = False
        normal_pages = 0
        seen_aidx: set[int] = set()
        normal_ppns: set[int] = set()

        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            t = self._pmt_cache.access(self, lpn, now, False, self.timed)
            finish = max(finish, t)
            wanted = mask_range(rel_lo, rel_lo + count)
            base = lpn * self.spp
            aidx = self._aidx[lpn]
            amask = 0
            if aidx >= 0:
                entry = self.amt.get(aidx)
                amask = self._area_rel_mask(lpn, entry.start, entry.end)
                hit = wanted & amask
                if hit:
                    touched_area = True
                    if aidx not in seen_aidx:
                        seen_aidx.add(aidx)
                        t = self._amt_cache.access(
                            self, aidx, now, False, self.timed
                        )
                        finish = max(finish, t)
                    if found is None:
                        plan[entry.appn] = None
                    else:
                        plan.setdefault(entry.appn, []).extend(
                            base + bit for bit in iter_bits(hit)
                        )
            rem = wanted & ~amask & self._pmt_mask[lpn]
            if rem:
                ppn = self._pmt[lpn]
                if ppn not in plan:
                    normal_pages += 1
                normal_ppns.add(ppn)
                if found is None:
                    plan[ppn] = None
                else:
                    plan.setdefault(ppn, []).extend(
                        base + bit for bit in iter_bits(rem)
                    )

        attr = self.service.attr
        # a merged read's extra normal-page reads are the across-FTL
        # re-align overhead the paper's Fig. 4 quantifies — label them
        merged = attr is not None and touched_area and normal_pages > 0
        for ppn, sectors in plan.items():
            if merged:
                attr.read_label = (
                    "merged_read" if ppn in normal_ppns else None
                )
            t = self.service.read_page(
                ppn, now, self._kind(OpKind.DATA), timed=self.timed
            )
            finish = max(finish, t)
            if found is not None:
                self._read_stamps_from(ppn, sectors, found)
        if attr is not None:
            attr.read_label = None

        if touched_area and not self.aging:
            if normal_pages == 0:
                # served entirely from across areas: the direct read
                self.across_stats.direct_reads += 1
            else:
                self.across_stats.merged_read_requests += 1
                self.counters.merged_reads += normal_pages
            if self.service.obs is not None:
                self._emit_decision(
                    "direct_read" if normal_pages == 0 else "merged_read",
                    offset // self.spp, now,
                )
        return finish, found

    # ==================================================================
    # TRIM (paper extension: deallocation interacts with live areas)
    # ==================================================================
    def trim(self, offset: int, size: int, now: float) -> float:
        """Drop data in the extent.  An across area wholly inside the
        trim is released outright; a partially-trimmed area is first
        rolled back to the normal pages (the surviving sectors move
        there), then trimmed like ordinary data."""
        first, last = lpn_range(offset, size, self.spp)
        end = offset + size
        seen: set[int] = set()
        for lpn in range(first, last):
            aidx = self._aidx[lpn]
            if aidx < 0 or aidx in seen:
                continue
            seen.add(aidx)
            entry = self.amt.get(aidx)
            overlap_lo = max(entry.start, offset)
            overlap_hi = min(entry.end, end)
            if overlap_lo >= overlap_hi:
                continue
            if offset <= entry.start and entry.end <= end:
                # fully trimmed: release the area, no data survives
                self.service.invalidate(entry.appn)
                for alpn in entry.lpns:
                    self._aidx[alpn] = -1
                self.amt.release(entry.aidx)
            else:
                # survivors move back to the normal pages, then the
                # base trim below removes the trimmed bits
                self._rollback(entry, now, None)
        return super().trim(offset, size, now)

    # ==================================================================
    # GC relocation of across pages
    # ==================================================================
    def _remap(self, code: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Across pages: the AMT entry follows its area."""
        if code != KIND_ACROSS:
            return super()._remap(code, src, dst)
        aidxs = self.service.array.a[dst].tolist()
        for old, new, aidx in zip(src.tolist(), dst.tolist(), aidxs):
            entry = self.amt.get(aidx)
            if entry.appn != old:
                raise MappingError(
                    f"AMT {aidx} points to {entry.appn}, GC found {old}"
                )
            entry.appn = new

    # ==================================================================
    # device-state seam
    # ==================================================================
    def state(self) -> dict:
        """Base tables plus the AIdx column, the AMT and the across
        statistics."""
        s = super().state()
        s.update(self.amt.state())
        s.update(aidx=self.aidx.copy(), across_stats=asdict(self.across_stats))
        return s

    def load_state(self, s: dict) -> None:
        """Base tables plus the across tables, in place."""
        super().load_state(s)
        self.amt.load_state(s)
        self.aidx[:] = s["aidx"]
        for name, value in s["across_stats"].items():
            setattr(self.across_stats, name, value)

    # ==================================================================
    # power-loss recovery
    # ==================================================================
    def _rebuild_reset(self) -> None:
        self.amt.clear()
        self.aidx.fill(-1)

    def _rebuild_page(self, ppn: int, meta) -> None:
        if meta.kind != "across":
            return super()._rebuild_page(ppn, meta)
        lpn0 = meta.start // self.spp
        entry = self.amt.restore(meta.aidx, lpn0, meta.start, meta.size, ppn)
        for lpn in entry.lpns:
            if self._aidx[lpn] >= 0:
                raise MappingError(f"LPN {lpn} claimed by two across areas")
            self._aidx[lpn] = entry.aidx

    def _rebuild_finish(self) -> None:
        self.amt.rebuild_done()
        # data-page OOB masks are as-of-programming: sectors an area
        # shadowed afterwards must be re-shadowed (without touching
        # flash — the pages were already invalidated when the shadowing
        # emptied them, so masks here stay non-empty)
        for entry in self.amt.entries():
            for lpn in entry.lpns:
                amask = self._area_rel_mask(lpn, entry.start, entry.end)
                self._pmt_mask[lpn] = self._pmt_mask[lpn] & ~amask

    # ==================================================================
    def mapping_table_bytes(self) -> int:
        """Fig. 12a model: PMT entries widened by the AIdx field, plus
        the live AMT (entries are page-granular and demand-allocated)."""
        mapped_lpns = int(((self.pmt >= 0) | (self.aidx >= 0)).sum())
        return (
            mapped_lpns * (self.PMT_ENTRY_BYTES + AIDX_FIELD_BYTES)
            + len(self.amt) * AMT_ENTRY_BYTES
        )

    def flush_metadata(self, now: float) -> float:
        """Write back dirty PMT and AMT translation pages."""
        t1 = self._pmt_cache.flush(self, now, timed=self.timed)
        t2 = self._amt_cache.flush(self, now, timed=self.timed)
        return max(t1, t2)

    def stats(self) -> dict:
        """Across-path statistics (Fig. 8) merged into the report."""
        s = super().stats()
        st = self.across_stats
        s.update(
            across_direct_writes=st.direct_writes,
            across_profitable_amerge=st.profitable_amerge,
            across_unprofitable_amerge=st.unprofitable_amerge,
            across_rollbacks=st.rollbacks,
            across_rollback_ratio=st.rollback_ratio(st.areas_created),
            across_direct_reads=st.direct_reads,
            across_merged_read_requests=st.merged_read_requests,
            amt_live=len(self.amt),
            amt_created=self.amt.total_created,
            amt_peak_live=self.amt.peak_live,
            amt_cache_hits=self._amt_cache.hits,
            amt_cache_misses=self._amt_cache.misses,
        )
        return s

    # ==================================================================
    def referenced_ppns(self):
        """Base tables plus the across-page areas the AMT maps."""
        yield from super().referenced_ppns()
        for entry in self.amt.entries():
            yield entry.appn, f"amt[{entry.aidx}]"

    def check_invariants(self) -> None:
        """Across-specific invariants on top of the base PMT checks."""
        super().check_invariants()
        self.amt.check_invariants()
        for lpn in np.nonzero(self.aidx >= 0)[0].tolist():
            aidx = self._aidx[lpn]
            entry = self.amt.get(aidx)
            if lpn not in entry.lpns:
                raise MappingError(f"AIdx[{lpn}]={aidx} but area spans {entry.lpns}")
            amask = self._area_rel_mask(lpn, entry.start, entry.end)
            if amask & self._pmt_mask[lpn]:
                raise MappingError(
                    f"LPN {lpn}: PMT mask overlaps across area {aidx}"
                )
        for entry in self.amt.entries():
            for lpn in entry.lpns:
                if self._aidx[lpn] != entry.aidx:
                    raise MappingError(
                        f"area {entry.aidx} not referenced by LPN {lpn}"
                    )
            if not self.service.array.is_valid(entry.appn):
                raise MappingError(f"area {entry.aidx} -> invalid PPN {entry.appn}")
            rec = self.service.array.record(entry.appn)
            if rec[:2] != (KIND_ACROSS, entry.aidx):
                raise MappingError(
                    f"area {entry.aidx} -> foreign page "
                    f"{self.service.array.meta(entry.appn)!r}"
                )
            if not (2 <= entry.size <= self.spp):
                raise MappingError(f"area {entry.aidx} has bad size {entry.size}")
            first, last = lpn_range(entry.start, entry.size, self.spp)
            if (first, last) != (entry.lpn0, entry.lpn0 + 2):
                raise MappingError(f"area {entry.aidx} extent/LPN mismatch")
