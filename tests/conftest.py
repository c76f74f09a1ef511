"""Shared fixtures: tiny devices, small calibrated traces, FTL factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SSDConfig,
    SimConfig,
    SyntheticSpec,
    Trace,
    generate_trace,
    make_ftl,
)
from repro.flash.array import PAGE_VALID
from repro.flash.service import FlashService


@pytest.fixture(autouse=True)
def no_images_from_earlier_tests():
    """The aged-device image cache is per process: without this, a test
    that ages a device would restore whatever an earlier test aged
    under the same key instead of exercising the aging it is about."""
    from repro.sim.image import IMAGES

    IMAGES.clear()


@pytest.fixture
def tiny_cfg() -> SSDConfig:
    return SSDConfig.tiny()


@pytest.fixture
def micro_cfg() -> SSDConfig:
    """Very small device: GC kicks in after a few hundred page writes."""
    return SSDConfig(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size_bytes=8 * 1024,
        write_buffer_bytes=0,
    )


@pytest.fixture
def service(tiny_cfg) -> FlashService:
    return FlashService(tiny_cfg)


@pytest.fixture
def micro_service(micro_cfg) -> FlashService:
    return FlashService(micro_cfg)


def build_ftl(scheme: str, cfg: SSDConfig, **kw):
    """Fresh (service, ftl) pair for a scheme."""
    service = FlashService(cfg)
    return service, make_ftl(scheme, service, track_payload=True, **kw)


def stamps_for(offset: int, size: int, v: int) -> dict:
    """The ``found`` stamps of a read of ``[offset, offset+size)`` after
    one write of that extent with oracle version ``v``."""
    return dict.fromkeys(range(offset, offset + size), v)


@pytest.fixture
def small_trace(tiny_cfg) -> Trace:
    spec = SyntheticSpec(
        "small",
        1_500,
        0.6,
        0.25,
        9.0,
        footprint_sectors=int(tiny_cfg.logical_sectors * 0.7),
        seed=11,
    )
    return generate_trace(spec)


@pytest.fixture
def oracle_sim_cfg() -> SimConfig:
    return SimConfig(check_oracle=True)


@pytest.fixture
def numpy_draws(monkeypatch):
    """Serve the synthetic generator's per-request draws from the numpy
    ``Generator`` itself instead of the raw-stream replay
    (``repro.traces.synthetic._Draws``): the call-by-call reference every
    generated trace must equal byte for byte.  The trace memo is emptied
    on the way in and out, so no trace crosses between the two paths."""
    from repro.traces import synthetic

    synthetic._TRACE_MEMO.clear()
    monkeypatch.setattr(synthetic, "_Draws", lambda rng: rng)
    yield
    synthetic._TRACE_MEMO.clear()


def relocate_each_programmed_page(ftl, kind, *, invariants_hold=True):
    """Make every GC check first relocate the pages of ``kind``
    programmed since the previous check — what one GC pass does when it
    takes several victims and the block that program filled is among
    them.  Fresh pages are found by diffing the array's page states, so
    a block-level GC move (``service.copy_run``) is covered as well.
    ``invariants_hold=False`` skips the "new page is
    already whole" sweep for sites whose check legitimately runs
    mid-operation (Across-FTL shadows the PMT mask *after* the check;
    digests pin that order).  Returns the list of PPNs moved."""
    arr = ftl.service.array
    seen = arr.page_state == PAGE_VALID
    maybe_collect = ftl.gc.maybe_collect
    moved = []

    def relocating_collect(owner, plane, now, timed=True):
        valid = arr.page_state == PAGE_VALID
        for ppn in np.flatnonzero(valid & ~seen).tolist():
            if arr.meta(ppn).kind == kind:
                if invariants_hold:
                    ftl.check_invariants()
                ftl._relocate(ppn, now, timed)
                moved.append(ppn)
        finish = maybe_collect(owner, plane, now, timed=timed)
        seen[:] = arr.page_state == PAGE_VALID
        return finish

    ftl.gc.maybe_collect = relocating_collect
    return moved


def page_at_a_time_relocation(ftl):
    """The GC callback as it was before the block-level move: one
    ``read_page`` -> check -> allocate -> ``program_page`` -> remap ->
    ``invalidate`` chain per valid page, with its own per-kind table
    updates.  ``ftl._relocate_pages = page_at_a_time_relocation(ftl)``
    (an instance attribute, which the collector finds first) turns a
    device into the reference ``BaseFTL._relocate_pages`` is held to
    (tests/test_gc_block_move.py): same device state, same counters."""
    from repro.errors import MappingError
    from repro.ftl.meta import KIND_ACROSS, KIND_DATA, KIND_MAP, KIND_REGION
    from repro.metrics.counters import OpKind

    service = ftl.service
    arr = service.array
    allocator = ftl.allocator

    def remap(old, new, code, a, b):
        if code == KIND_DATA:
            if ftl._pmt[a] != old:
                raise MappingError(f"PMT[{a}] != {old}")
            ftl._pmt[a] = new
        elif code == KIND_MAP:
            if ftl._map_ppn[a][b] != old:
                raise MappingError(f"stale map page {(a, b)}")
            ftl._map_ppn[a][b] = new
        elif code == KIND_ACROSS:
            entry = ftl.amt.get(a)
            if entry.appn != old:
                raise MappingError(f"AMT {a} does not name {old}")
            entry.appn = new
        elif code == KIND_REGION:
            R = ftl.R
            loc = new * R
            for old_loc in range(old * R, old * R + ftl._page_slots[old]):
                key = ftl._slot_key[old_loc]
                if key < 0:
                    continue
                if ftl._rloc[key] != old_loc:
                    raise MappingError(f"region {key} not at {old_loc}")
                ftl._slot_key[loc] = key
                ftl._slot_mask[loc] = ftl._rmask[key]
                ftl._rloc[key] = loc
                ftl._slot_key[old_loc] = -1
                loc += 1
            ftl._page_slots[new] = ftl._page_live[new] = loc - new * R
            ftl._page_live[old] = 0
        else:
            raise MappingError(f"page {old} holds no record")

    def relocate(ppns, now, timed):
        finish = now
        for old in np.asarray(ppns).tolist():
            kind = OpKind.GC if ftl.timed else OpKind.AGING
            service.read_page(old, now, kind, timed=timed)
            rec = arr.record(old)
            new = allocator.allocate_in_plane(ftl.geom.plane_of_ppn(old))
            if new is None:
                new = allocator.allocate()
            finish = max(finish, service.program_page(
                new, rec, now, kind, timed=ftl.timed,
                payload=arr.payloads.get(old),
            ))
            remap(old, new, *rec[:3])
            service.invalidate(old)
        return finish

    return relocate


def random_extents(rng: np.random.Generator, n: int, max_sector: int, spp: int):
    """Random (offset, size) extents mixing aligned, across and large."""
    out = []
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 0:  # across-page
            boundary = int(rng.integers(1, max_sector // spp)) * spp
            left = int(rng.integers(1, spp // 2))
            right = int(rng.integers(1, spp // 2))
            size = min(left + right, spp)
            out.append((boundary - left, size))
        elif kind == 1:  # sub-page
            page = int(rng.integers(max_sector // spp))
            size = int(rng.integers(1, spp))
            rel = int(rng.integers(0, spp - size + 1))
            out.append((page * spp + rel, size))
        else:  # multi-page
            page = int(rng.integers(max_sector // spp - 4))
            size = int(rng.integers(1, 4 * spp))
            out.append((page * spp, max(1, size)))
    return out
