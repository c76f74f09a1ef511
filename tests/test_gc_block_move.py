"""The block-level GC move (``BaseFTL._relocate_pages``) against the
page-at-a-time chain it replaced (``conftest.page_at_a_time_relocation``).

Two devices see the same requests; one collects through the block move,
the other through the reference.  Afterwards every field of the device
state seam is equal (``state_diff`` is empty: page states, record
columns, flash tallies, allocator cursor, chip timelines, mapping
tables, GC tallies) and so are the counters — for
ftl / mrsm / across under every GC policy.  Then the instrumented mode:
with the event bus, the fault injector or latency attribution on, the
same routine issues single flash operations, so events, fault draws and
the phase-conservation law are what they were.
"""

import dataclasses

import numpy as np
import pytest

from conftest import page_at_a_time_relocation, random_extents
from repro.config import (
    GC_POLICIES,
    CheckConfig,
    FaultConfig,
    ObservabilityConfig,
    SimConfig,
    SSDConfig,
    TimingConfig,
)
from repro.errors import FlashProtocolError, MappingError
from repro.experiments.benchgate import report_digest
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.ftl.gc_policy import PreemptivePolicy
from repro.ftl.meta import KIND_ACROSS, KIND_DATA, KIND_MAP, KIND_REGION
from repro.obs.events import FlashOp
from repro.sim.engine import Simulator
from repro.sim.image import device_state, state_diff
from repro.traces.synthetic import SyntheticSpec, generate_trace

SCHEMES = ("ftl", "mrsm", "across")

#: 4 planes x 48 blocks x 8 pages of 4 KiB, and a mapping cache of one
#: translation page under tables of several (translation pages share
#: victims with data)
CFG = SSDConfig(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=48,
    pages_per_block=8,
    page_size_bytes=4 * 1024,
    write_buffer_bytes=0,
    mapping_cache_entries=64,
)


@pytest.fixture(autouse=True)
def short_slices(monkeypatch):
    """Preemptive slices short enough to defer on ``CFG``."""
    monkeypatch.setattr(PreemptivePolicy, "SLICE_PAGES", 3)

#: the record kinds each scheme's victims hold
KINDS = {
    "ftl": {KIND_DATA, KIND_MAP},
    "mrsm": {KIND_REGION, KIND_MAP},
    "across": {KIND_DATA, KIND_MAP, KIND_ACROSS},
}


def device(scheme, policy="greedy", *, reference=False, cfg=CFG, **ftl_kw):
    ftl = make_ftl(scheme, FlashService(cfg.replace(gc_policy=policy)), **ftl_kw)
    if reference:
        ftl._relocate_pages = page_at_a_time_relocation(ftl)
    return ftl


def drive(ftl, seed=3, n=2400):
    """Untimed warm-up writes (aging mode), then timed writes, reads
    and TRIMs over 75 % of the logical space — plus a few pages at its
    far end written once: their translation page is cold, so it stays
    valid while the data around it dies and ends up in victims."""
    rng = np.random.default_rng(seed)
    span = int(ftl.logical_pages * ftl.spp * 0.75)
    extents = random_extents(rng, n, span, ftl.spp)
    ftl.aging = True
    ftl.write((ftl.logical_pages - 8) * ftl.spp, 4 * ftl.spp, 0.0)
    for off, size in extents[: n // 3]:
        ftl.write(off, size, 0.0)
    ftl.aging = False
    now = 0.0
    for (off, size), roll in zip(extents[n // 3 :], rng.integers(10, size=n)):
        now += 0.05
        if roll == 0:
            ftl.trim(off, size, now)
        elif roll < 3:
            ftl.read(off, size, now)
        else:
            ftl.write(off, size, now)


def watch_moves(ftl):
    """Log, per ``_relocate_pages`` call, the record kinds moved and the
    destination runs ``copy_run`` was handed."""
    calls = []
    relocate, copy_run = ftl._relocate_pages, ftl.service.copy_run

    def relocating(ppns, now, timed):
        calls.append({"kinds": set(ftl.service.array.kind[ppns].tolist()), "runs": []})
        return relocate(ppns, now, timed)

    def copying(src, dst, now, kind, *, timed=True):
        calls[-1]["runs"].append((dst, len(src)))
        return copy_run(src, dst, now, kind, timed=timed)

    ftl._relocate_pages = relocating
    ftl.service.copy_run = copying
    return calls


@pytest.mark.parametrize("policy", GC_POLICIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_block_move_leaves_the_device_of_the_page_at_a_time_chain(scheme, policy):
    moved, reference = device(scheme, policy), device(scheme, policy, reference=True)
    calls = watch_moves(moved)
    drive(moved)
    drive(reference)
    assert state_diff(device_state(moved), device_state(reference)) == []
    assert moved.counters.snapshot() == reference.counters.snapshot()
    assert moved.stats() == reference.stats()
    moved.check_invariants()
    moved.service.array.check_invariants()

    gc = moved.gc
    assert gc.collections > 0 and gc.migrated_pages > 0
    assert gc.migrated_pages == sum(n for c in calls for _, n in c["runs"])
    # victims mix the scheme's record kinds, and some destination run
    # ended with its block: the move went on in the next one
    assert set().union(*(c["kinds"] for c in calls)) == KINDS[scheme]
    assert any(len(c["kinds"]) > 1 for c in calls)
    sizes = [sum(n for _, n in c["runs"]) for c in calls]
    if policy == "preemptive":
        # a slice budget is a prefix of the victim's valid pages
        assert gc.slices > 0 and gc.deferrals > 0
        assert sizes.count(PreemptivePolicy.SLICE_PAGES) >= gc.deferrals
    else:
        assert any(len(c["runs"]) > 1 for c in calls)
    if policy == "hot_cold":
        assert moved.allocator.separate_streams


@pytest.mark.parametrize("scheme", SCHEMES)
def test_block_move_with_a_modelled_bus_transfer(scheme):
    """Channel-bus contention is part of the timeline calls the move
    makes op by op, so it needs no mode of its own."""
    cfg = CFG.replace(timing=TimingConfig(transfer_ms=0.02), chips_per_channel=2, channels=1)
    moved, reference = device(scheme, cfg=cfg), device(scheme, cfg=cfg, reference=True)
    calls = watch_moves(moved)
    drive(moved, n=1500)
    drive(reference, n=1500)
    assert any(c["runs"] for c in calls)
    assert moved.service.timeline.bus_busy_until.max() > 0
    assert state_diff(device_state(moved), device_state(reference)) == []


@pytest.mark.parametrize("scheme", SCHEMES)
def test_an_exhausted_plane_spills_page_by_page(scheme):
    """No free block left in the victim's plane and its GC frontier
    full: each page goes wherever ``allocator.allocate`` points next,
    the round-robin cursor advancing per page, as it did."""
    devices = []
    for reference in (False, True):
        ftl = device(scheme, reference=reference)
        drive(ftl, n=800)
        arr = ftl.service.array
        victim = next(
            b for b in range(CFG.blocks_per_plane)
            if arr.valid_count[b] > 3 and not ftl.allocator.is_active(b)
        )
        arr._free_blocks[0].clear()
        while (pad := ftl.allocator.allocate_in_plane(0)) is not None:
            arr.program(pad, KIND_DATA)  # seal the frontier with dead pages
            arr.invalidate(pad)
        ppns = arr.valid_ppns(victim)
        elsewhere = int(arr.valid_count[CFG.blocks_per_plane :].sum())
        ftl._relocate_pages(ppns, 50.0, True)
        assert arr.valid_count[victim] == 0
        assert arr.valid_count[CFG.blocks_per_plane :].sum() == elsewhere + len(ppns)
        devices.append(ftl)
    moved, reference = devices
    assert state_diff(device_state(moved), device_state(reference)) == []
    assert moved.counters.snapshot() == reference.counters.snapshot()


def test_the_checks_of_the_chain_are_kept():
    ftl = device("ftl")
    drive(ftl, n=800)
    arr = ftl.service.array
    victim = next(
        b for b in range(CFG.num_blocks)
        if 1 < arr.valid_count[b] < CFG.pages_per_block
        and not ftl.allocator.is_active(b)
        and (arr.kind[arr.valid_ppns(b)] == KIND_DATA).all()
    )
    ppns = arr.valid_ppns(victim)
    lo = victim * CFG.pages_per_block
    stale = next(p for p in range(lo, lo + CFG.pages_per_block) if p not in ppns)
    with pytest.raises(FlashProtocolError, match=f"non-valid PPN {stale}"):
        ftl._relocate_pages(np.sort(np.append(ppns, stale)), 0.0, True)
    ftl.pmt[arr.a[ppns[0]]] = ppns[1]  # a stale mapping
    with pytest.raises(MappingError, match="PMT points to"):
        ftl._relocate_pages(ppns, 0.0, True)


# ----------------------------------------------------------------------
# the instrumented mode: same routine, single flash operations
# ----------------------------------------------------------------------
TRACE = generate_trace(
    SyntheticSpec(
        "block-move", 1200, 0.8, 0.3, 9.0,
        footprint_sectors=int(CFG.logical_sectors * 0.6), seed=17,
    )
)


def simulate(scheme, sim_cfg, *, reference=False):
    sim = Simulator(make_ftl(scheme, FlashService(CFG)), sim_cfg)
    if reference:
        sim.ftl._relocate_pages = page_at_a_time_relocation(sim.ftl)
    return sim


@pytest.mark.parametrize("scheme", SCHEMES)
def test_an_observed_run_emits_a_read_and_a_program_per_moved_page(scheme):
    cfg = SimConfig(observability=ObservabilityConfig(enabled=True))
    sim = simulate(scheme, cfg)
    ops = []
    sim.obs.bus.subscribe(FlashOp, ops.append)
    copy_runs = watch_moves(sim.ftl)
    report = sim.run(TRACE)
    moved = sim.ftl.gc.migrated_pages
    assert moved > 0 and not any(c["runs"] for c in copy_runs)
    gc_ops = [(e.op, e.ppn) for e in ops if e.kind == "gc"]
    assert len(gc_ops) == 2 * moved
    # read of the old page, then program of the new one, pair by pair
    assert [op for op, _ in gc_ops] == ["read", "program"] * moved
    assert report_digest(report) == report_digest(
        simulate(scheme, cfg, reference=True).run(TRACE)
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_faulted_run_keeps_its_digest(scheme):
    """Fault draws come from one generator in operation order: a block
    move that reordered reads and programs would change every later
    draw, and with it retries, retirements and the report."""
    cfg = SimConfig(faults=dataclasses.replace(FaultConfig.stress(seed=5), enabled=True))
    sim = simulate(scheme, cfg)
    report = sim.run(TRACE)
    assert sim.ftl.gc.migrated_pages > 0 and sim.faults.draws > 0
    reference = simulate(scheme, cfg, reference=True)
    assert report_digest(report) == report_digest(reference.run(TRACE))
    assert sim.faults.draws == reference.faults.draws


@pytest.mark.parametrize("scheme", SCHEMES)
def test_attribution_still_conserves_latency(scheme):
    """GC is background for attribution (it runs suspended, its erases
    noted per chip); the checker holds every request's phases to its
    latency, and sweeps the cross-layer invariants as it goes."""
    cfg = SimConfig(
        observability=ObservabilityConfig(enabled=True, attribution=True),
        check=CheckConfig(enabled=True, every=200),
    )
    sim = simulate(scheme, cfg)
    report = sim.run(TRACE)
    assert sim.ftl.gc.migrated_pages > 0
    assert report.extra["check_sweeps"] > 1
    assert report_digest(report) == report_digest(
        simulate(scheme, cfg, reference=True).run(TRACE)
    )
