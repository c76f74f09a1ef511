"""Device aging has one write path: ``Simulator._write_until``, a loop
over the scheme's own ``write``.

The pins below are ``DeviceImage.fingerprint()``s of the device state
two aging runs leave behind — recorded when ftl and across still aged
through a fused kernel that inlined the untimed flavour of every
flash/cache operation, and which the scalar loop over ``write`` was
required to match bit for bit (re-pinned once since, when the GC
tallies lost an element that was 0 in every pin: ``state_diff`` against
the old device listed only ``gc.tallies``).  The one path must
reproduce every pin:
PMT and masks, the AMT, page states and write pointers, page records,
counters, the allocator cursor, GC tallies and the mapping caches' LRU
order — also with a mapping cache too small for the table
(miss/evict/write-back paths), under the ``hot_cold`` policy (separate
write streams) and with the ``rmw_enabled=False`` ablation.
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
        "7fc91545d3346661d2b6328e93948cce36a4bc7a26797b063e25a2e008c74a04",
    ),
    ("ftl", "small-map-cache"): (
        {"mapping_cache_entries": 1024}, {},
        "8462ef35dbe70055a1a1f3d0c67fe3a789965e91893ea5ca4dc7c862ec887b78",
    ),
    ("ftl", "hot-cold"): (
        {"gc_policy": "hot_cold"}, {},
        "d9aaddd3730d1388f523120fd160a282fbddc3dac64f44a256580ba1957831ca",
    ),
    ("ftl", "no-rmw"): (
        {}, {"rmw_enabled": False},
        "ab898fb3aceaae0e5483da9a4a33ec1bc9d606dd94532027d58243250357c298",
    ),
    ("across", "default"): (
        {}, {},
        "2a79e0a7fea487716c90bce9e14c7835086ea04efe50037f20172e53604ef1b4",
    ),
    ("across", "small-map-cache"): (
        {"mapping_cache_entries": 1024}, {},
        "8d74b1a4568db8301841c14e3524485b085f9d483cec360d0e7f75cb027201e0",
    ),
    ("across", "hot-cold"): (
        {"gc_policy": "hot_cold"}, {},
        "f1dae95d0af35d4cb6cd11843ff968ed9ba51e0be03f147529efc19ce81cb378",
    ),
    ("mrsm", "default"): (
        {}, {},
        "1a9d92225530271a4037dc0ad44886925a4b925b85ece1161814df626425f524",
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
