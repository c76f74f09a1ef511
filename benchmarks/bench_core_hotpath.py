"""Microbenchmarks of the simulation-core hot paths (pytest-benchmark).

Each bench times one inner-loop primitive of the replay pipeline on a
tiny device — write servicing, read servicing, GC pressure, and the
Across-FTL AMerge/ARollback paths — so a hot-path regression is
attributable to a specific layer instead of showing up only as a slower
end-to-end replay.  The end-to-end contract itself is enforced
separately: bit-identical output by ``tests/test_golden_hotpath.py``
against ``tests/data/golden_hotpath.json``, and speed by
``benchmarks/e2e``.

Run with:

    PYTHONPATH=src python -m pytest benchmarks/bench_core_hotpath.py \
        --benchmark-only -q
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig, SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from repro.traces.model import OP_READ, OP_WRITE


def _sim(scheme: str) -> Simulator:
    cfg = SSDConfig.tiny()
    ftl = make_ftl(scheme, FlashService(cfg))
    return Simulator(ftl, SimConfig())


def _prefill(sim: Simulator, pages: int = 256) -> None:
    """Map a working set so reads/updates hit real pages."""
    spp = sim.spp
    for lpn in range(pages):
        sim.process(OP_WRITE, lpn * spp, spp, float(lpn))


# ----------------------------------------------------------------------
# write / read service paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["ftl", "mrsm", "across"])
def test_write_path(benchmark, scheme):
    """Aligned-page update writes through the full request path."""
    sim = _sim(scheme)
    _prefill(sim)
    spp = sim.spp
    state = {"i": 0}

    def one_write():
        i = state["i"]
        state["i"] = i + 1
        sim.process(OP_WRITE, (i % 256) * spp, spp, 1000.0 + i)

    benchmark(one_write)


@pytest.mark.parametrize("scheme", ["ftl", "mrsm", "across"])
def test_read_path(benchmark, scheme):
    """Single-page reads of a mapped working set (cache misses and
    hits both occur, as in a replay)."""
    sim = _sim(scheme)
    _prefill(sim)
    spp = sim.spp
    state = {"i": 0}

    def one_read():
        i = state["i"]
        state["i"] = i + 1
        sim.process(OP_READ, (i * 7 % 256) * spp, spp, 2000.0 + i)

    benchmark(one_read)


# ----------------------------------------------------------------------
# GC pressure
# ----------------------------------------------------------------------
def test_gc_churn(benchmark):
    """Overwrite churn on a small footprint: every program runs the GC
    check and collections fire regularly."""
    sim = _sim("ftl")
    spp = sim.spp
    footprint = int(sim.ftl.logical_pages * 0.95)
    # churn the footprint until the collector has fired at least once,
    # so the benchmarked steady state includes real GC pressure
    i = 0
    while sim.ftl.gc.collections == 0:
        sim.process(OP_WRITE, (i % footprint) * spp, spp, float(i))
        i += 1
    state = {"i": i}

    def churn():
        i = state["i"]
        state["i"] = i + 1
        sim.process(OP_WRITE, (i % footprint) * spp, spp, 3000.0 + i)

    benchmark(churn)
    assert sim.ftl.gc.collections > 0


# ----------------------------------------------------------------------
# Across-FTL decision paths
# ----------------------------------------------------------------------
def test_across_amerge(benchmark):
    """Repeated across-page updates of the same site: after the first
    direct write every update takes the AMerge path."""
    sim = _sim("across")
    spp = sim.spp
    half = spp // 2
    sim.process(OP_WRITE, half, spp, 0.0)  # create the area
    state = {"i": 0}

    def amerge():
        i = state["i"]
        state["i"] = i + 1
        sim.process(OP_WRITE, half, spp, 10.0 + i)

    benchmark(amerge)
    stats = sim.ftl.across_stats
    assert stats.profitable_amerge + stats.unprofitable_amerge > 0


def test_across_arollback(benchmark):
    """Across write then a conflicting aligned overwrite: each pair
    creates an area and rolls it back."""
    sim = _sim("across")
    spp = sim.spp
    half = spp // 2
    state = {"i": 0}

    def make_and_rollback():
        i = state["i"]
        state["i"] = i + 1
        base = (i % 64) * 2 * spp
        sim.process(OP_WRITE, base + half, spp, 20.0 + i)   # across area
        sim.process(OP_WRITE, base, 2 * spp, 21.0 + i)      # forces rollback

    benchmark(make_and_rollback)
    assert sim.ftl.across_stats.rollbacks > 0
