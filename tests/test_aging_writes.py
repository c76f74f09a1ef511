"""Device aging has one write path: ``Simulator._write_until``, a loop
over the scheme's own ``write``.

The pins below are ``DeviceImage.fingerprint()``s of the device state
two aging runs leave behind — recorded when ftl and across still aged
through a fused kernel that inlined the untimed flavour of every
flash/cache operation, and which the scalar loop over ``write`` was
required to match bit for bit (re-pinned three times since: when the
GC tallies lost an element that was 0 in every pin, ``state_diff``
against the old device listed only ``gc.tallies``; when the array lost
its block-age clock, it listed only ``array.last_mod`` and
``array.tallies``, whose other elements were unchanged; when the
allocator lost its second write stream, it listed only
``allocator.active``, reshaped from one row per stream to one entry per
plane with the same blocks; and mrsm's once more when GC's restore
loop stopped reading an erased victim as a stall).  The one path must
reproduce every pin:
PMT and masks, the AMT, page states and write pointers, page records,
counters, the allocator cursor, GC tallies and the mapping caches' LRU
order — also with a mapping cache too small for the table
(miss/evict/write-back paths) and with the ``rmw_enabled=False``
ablation.
"""

import sys

import numpy as np
import pytest

from conftest import random_extents, relocate_each_programmed_page
from repro.config import SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.metrics.counters import OpKind
from repro.sim.engine import Simulator
from repro.sim.image import DeviceImage

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

#: (scheme, variant) -> (SSDConfig overrides, make_ftl kwargs, pin)
PINS = {
    ("ftl", "default"): (
        {}, {},
        "55619d1987ccb5199db74ca30a759f82b81e424bfd58f2a39fbbca050c65b63f",
    ),
    ("ftl", "small-map-cache"): (
        {"mapping_cache_entries": 1024}, {},
        "3d007f2128c91afbfee2716f098af38a5a0b3ded8dd3ecfce3988ffc925b1bde",
    ),
    ("ftl", "no-rmw"): (
        {}, {"rmw_enabled": False},
        "6a94aee4ec37a73ba73caeeabf147b0ce7b4421c5463884f15e651fbe33e6234",
    ),
    ("across", "default"): (
        {}, {},
        "b305f3f11796ca3b4ac78d532d9a1bc98d818e9cec192e1a07cc5f0d431e6705",
    ),
    ("across", "small-map-cache"): (
        {"mapping_cache_entries": 1024}, {},
        "b6a14c1c44c15704d8dfeb810ec1acdf1c30ca4599972e1c2546299b6b8c4145",
    ),
    ("mrsm", "default"): (
        {}, {},
        "b3e46f767f3847be8f5440b7d5f47f38551d50352fbe895881c903a43bb65ddd",
    ),
}


def aging_sim(scheme, cfg=CFG, **ftl_kw):
    return Simulator(make_ftl(scheme, FlashService(cfg), **ftl_kw))


def aging_run(n, seed):
    """A mixed run of across-page, sub-page and multi-page extents."""
    rng = np.random.default_rng(seed)
    span = int(CFG.logical_sectors * 0.9)
    extents = random_extents(rng, n, span, CFG.sectors_per_page)
    return [o for o, _ in extents], [s for _, s in extents]


def age(sim, offsets, sizes, target=sys.maxsize):
    with sim._aging_mode():
        sim._write_until(offsets, sizes, target)


@pytest.mark.parametrize(
    "scheme,variant", list(PINS), ids=[f"{s}-{v}" for s, v in PINS]
)
def test_aging_reproduces_the_pin(scheme, variant):
    cfg_kw, ftl_kw, pin = PINS[scheme, variant]
    sim = aging_sim(scheme, CFG.replace(**cfg_kw), **ftl_kw)
    # two runs back to back: the second starts on a dirty, GC-active
    # device with warm caches
    for seed in (1, 2):
        age(sim, *aging_run(900, seed))
    ftl = sim.ftl
    assert ftl.gc.collections > 0  # GC really ran
    if variant == "small-map-cache":
        assert ftl._pmt_cache.evictions > 0  # the miss/evict paths ran
    assert DeviceImage.capture(ftl, "pin").fingerprint() == pin


@pytest.mark.parametrize("scheme", ["ftl", "mrsm", "across"])
def test_aging_stops_at_the_target(scheme):
    """The AGING-write target is checked after each request: the loop
    stops on the first request that reaches it, as issuing the requests
    one by one and stopping there does."""
    offsets, sizes = aging_run(400, seed=3)
    target = 150
    sim = aging_sim(scheme)
    age(sim, offsets, sizes, target)
    ref = aging_sim(scheme)
    writes = ref.ftl.counters.writes
    consumed = 0
    with ref._aging_mode():
        while writes[OpKind.AGING] < target:
            ref.ftl.write(offsets[consumed], sizes[consumed], 0.0, None)
            consumed += 1
    assert 0 < consumed < len(offsets)
    assert DeviceImage.capture(sim.ftl, "k").fingerprint() == (
        DeviceImage.capture(ref.ftl, "k").fingerprint()
    )
    sim.ftl.check_invariants()


@pytest.mark.parametrize("scheme", ["ftl", "across"])
def test_pmt_recorded_before_the_gc_check(scheme):
    """Aging writes store ``pmt[lpn]`` before the GC check, so a pass
    that takes the block just filled can relocate the new page."""
    sim = aging_sim(scheme)
    ftl = sim.ftl
    moved = relocate_each_programmed_page(
        ftl, "data", invariants_hold=scheme == "ftl"
    )
    offsets, sizes = aging_run(120, seed=6)
    age(sim, offsets, sizes)
    assert len(moved) >= len(offsets) // 2
    arr = ftl.service.array
    assert not any(arr.is_valid(ppn) for ppn in moved)
    ftl.check_invariants()
    arr.check_invariants()
