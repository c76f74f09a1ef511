"""A device is a tree: a dropped simulator is freed by reference counting.

No device object points back at its owner — the FTL passes itself into
the collector and the mapping caches per call, the collector passes
itself into its policy's hooks, and the frontend scheduler does not
outlive the replay loop — so with the cyclic collector switched off a
dropped :class:`Simulator` and its :class:`FlashArray` die at ``del``.
That is why aging runs no heap-wide ``gc.collect()``.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.config import (
    GC_POLICIES,
    CheckConfig,
    FaultConfig,
    ObservabilityConfig,
    SimConfig,
    SSDConfig,
)
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from repro.traces.synthetic import SyntheticSpec, generate_trace

SCHEMES = ("ftl", "mrsm", "across")

#: the tiny preset with translation pages spilling to flash, so every
#: mapping cache programs and reads through its owner
CFG = SSDConfig.tiny().replace(mapping_cache_entries=2048)

#: aged to the paper's steady state: GC has run before the replay
AGED = SimConfig(aged_used=0.90, aged_valid=0.398, aging_style="vdi")

TRACE = generate_trace(
    SyntheticSpec(
        "acyclic", 300, 0.6, 0.25, 9.0,
        footprint_sectors=int(CFG.logical_sectors * 0.7), seed=11,
    )
)

MODES = {
    "frontend": AGED.replace_frontend(enabled=True),
    "obs": dataclasses.replace(AGED, observability=ObservabilityConfig.full()),
    "faults": dataclasses.replace(AGED, faults=FaultConfig.stress()),
    "check": dataclasses.replace(
        AGED, check=CheckConfig(enabled=True), check_oracle=True
    ),
}


def assert_freed_on_drop(scheme, cfg, sim_cfg, extra=lambda sim: []):
    """Replay, then drop the simulator with the cyclic collector off:
    it, its flash array and every object ``extra(sim)`` names must be
    freed at ``del``."""
    sim = Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)
    sim.run(TRACE)
    assert sim.ftl.gc.collections > 0  # GC, and its relocation, ran
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        objs = [sim, sim.ftl.service.array, *extra(sim)]
        refs = [weakref.ref(obj) for obj in objs]
        del sim, objs
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("policy", GC_POLICIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_dropped_aged_simulator_dies_at_del(scheme, policy):
    assert_freed_on_drop(scheme, CFG.replace(gc_policy=policy), AGED)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_dropped_simulator_dies_at_del_in_every_mode(scheme, mode):
    assert_freed_on_drop(scheme, CFG, MODES[mode])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_dropped_observed_simulator_frees_its_bus_and_recorder(scheme):
    # the recorder's handlers sit on the bus; it reads the bus back
    # only through a weak reference
    full = dataclasses.replace(AGED, observability=ObservabilityConfig.full())
    assert_freed_on_drop(
        scheme, CFG, full, lambda sim: [sim.obs.bus, sim.obs.recorder]
    )
