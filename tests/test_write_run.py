"""Fused ``write_run`` kernels leave exactly the reference device state.

``BaseFTL.write_run`` — a scalar loop over ``write`` — is the reference
for device aging.  The page-mapped schemes override it with a fused
kernel (they share ``BaseFTL._write_run_paged``) that inlines the
untimed flavour of every flash/cache operation; MRSM has none and ages
through the reference itself.  Engine-level digests cover the kernels
indirectly; here the two are run side by side on fresh devices and
*every* piece of state they touch is compared — the device-state seam
(``state()`` per component, walked by ``repro.sim.image.device_state``)
is the one enumeration of it: PMT and masks, the AMT, page states and
write pointers, page metadata, counters, the allocator cursor, GC
tallies and the mapping caches' LRU order — also with a mapping cache
too small for the table (miss/evict/write-back paths) and under the
``hot_cold`` policy (separate write streams).
"""

import sys

import numpy as np
import pytest

from conftest import random_extents, relocate_each_programmed_page
from repro.config import SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.ftl.base import BaseFTL
from repro.ftl.mrsm import MRSMFTL
from repro.metrics.counters import OpKind
from repro.sim.image import device_state, state_diff

#: the schemes with a fused kernel
SCHEMES = ("ftl", "across")

#: 2048 physical pages: small enough that ~3000 page writes wrap the
#: device through GC, large enough that the PMT spans four translation
#: pages (512 entries each) so a two-page mapping cache really evicts
#: and its LRU order matters
CFG = SSDConfig(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=32,
    page_size_bytes=4 * 1024,
    write_buffer_bytes=0,
)

VARIANTS = {
    "default": {},
    "small-map-cache": {"mapping_cache_entries": 1024},
    "hot-cold": {"gc_policy": "hot_cold"},
}


def aging_ftl(scheme, cfg, **ftl_kw):
    ftl = make_ftl(scheme, FlashService(cfg), **ftl_kw)
    ftl.aging = True
    assert not ftl._write_run_fallback()  # the fused path is really taken
    return ftl


def aging_run(n, seed):
    """A mixed run of across-page, sub-page and multi-page extents."""
    rng = np.random.default_rng(seed)
    span = int(CFG.logical_sectors * 0.9)
    extents = random_extents(rng, n, span, CFG.sectors_per_page)
    return [o for o, _ in extents], [s for _, s in extents]


def assert_same_device(fused, ref):
    """Every field of the device-state seam equal — dict, LRU and deque
    *order* included, because the seam stores each as a sequence."""
    assert state_diff(device_state(fused), device_state(ref)) == []


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fused_run_matches_reference(scheme, variant):
    cfg = CFG.replace(**VARIANTS[variant])
    fused = aging_ftl(scheme, cfg)
    ref = aging_ftl(scheme, cfg)
    # two runs back to back: the second starts on a dirty, GC-active
    # device with warm caches
    for seed in (1, 2):
        offsets, sizes = aging_run(900, seed)
        assert fused.write_run(offsets, sizes, sys.maxsize) == len(offsets)
        assert BaseFTL.write_run(ref, offsets, sizes, sys.maxsize) == len(
            offsets
        )
        assert_same_device(fused, ref)
    assert fused.gc.collections > 0  # GC really ran under the kernel
    if variant == "small-map-cache":
        assert fused._pmt_cache.evictions > 0  # the miss/evict paths ran


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fused_run_stops_on_the_same_request(scheme):
    """The AGING-write target is checked after each request: both
    paths consume the same prefix of the run."""
    fused = aging_ftl(scheme, CFG)
    ref = aging_ftl(scheme, CFG)
    offsets, sizes = aging_run(400, seed=3)
    target = 150
    consumed = fused.write_run(offsets, sizes, target)
    assert consumed == BaseFTL.write_run(ref, offsets, sizes, target)
    assert 0 < consumed < len(offsets)
    assert fused.counters.writes[OpKind.AGING] >= target
    assert_same_device(fused, ref)


def test_pagemap_rmw_ablation_matches_reference():
    """``rmw_enabled=False`` (the ablation knob) drops the old mask
    before every piece — in the shared kernel as in ``write``."""
    fused = aging_ftl("ftl", CFG, rmw_enabled=False)
    ref = aging_ftl("ftl", CFG, rmw_enabled=False)
    offsets, sizes = aging_run(900, seed=4)
    fused.write_run(offsets, sizes, sys.maxsize)
    BaseFTL.write_run(ref, offsets, sizes, sys.maxsize)
    assert_same_device(fused, ref)


def test_mrsm_ages_through_the_reference_loop():
    """One write path: no fused twin of ``MRSMFTL.write`` to keep in
    step with it."""
    assert "write_run" not in vars(MRSMFTL)
    ftl = aging_ftl("mrsm", CFG)
    offsets, sizes = aging_run(400, seed=3)
    assert 0 < ftl.write_run(offsets, sizes, 150) < len(offsets)
    assert ftl.counters.writes[OpKind.AGING] >= 150
    ftl.check_invariants()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fused_run_records_the_pmt_before_the_gc_check(scheme):
    """The fused loop stores ``pmt[lpn]`` above its inlined GC check, so
    a pass that takes the block just filled can relocate the new page.
    The inlined screen only calls the collector on a low plane; opening
    it (``_ok_free_count``) sends every program there."""
    ftl = aging_ftl(scheme, CFG)
    moved = relocate_each_programmed_page(
        ftl, "data", invariants_hold=scheme == "ftl"
    )
    ftl.gc._ok_free_count = CFG.blocks_per_plane + 1
    offsets, sizes = aging_run(120, seed=6)
    assert ftl.write_run(offsets, sizes, sys.maxsize) == len(offsets)
    assert len(moved) >= len(offsets) // 2
    arr = ftl.service.array
    assert not any(arr.is_valid(ppn) for ppn in moved)
    ftl.check_invariants()
    arr.check_invariants()
