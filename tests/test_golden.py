"""Golden regression values: exact counters for a pinned workload.

The simulator is fully deterministic, so these numbers change only
when *behaviour* changes.  If a test here fails after an intentional
algorithmic change, inspect the delta, confirm it is expected (the
oracle and shape benches still pass), and update the constants with
the generator snippet in this file's history.

Beyond regression pinning, the relationships between the rows document
the schemes: across < ftl < mrsm in flash writes; MRSM's DRAM count
dwarfs the flat tables.
"""

import pytest

from repro import SimConfig, SSDConfig, SyntheticSpec, generate_trace, run_trace

GOLDEN = {
    "ftl": dict(writes=1196, reads=829, erases=0, update_reads=72, dram=2052),
    "mrsm": dict(writes=1322, reads=1073, erases=0, update_reads=28, dram=32050),
    "across": dict(writes=1023, reads=712, erases=0, update_reads=80, dram=2376),
}


@pytest.fixture(scope="module")
def golden_setup():
    cfg = SSDConfig.tiny()
    spec = SyntheticSpec(
        "golden",
        1_200,
        0.6,
        0.25,
        9.0,
        footprint_sectors=int(cfg.logical_sectors * 0.6),
        seed=1234,
    )
    return cfg, generate_trace(spec)


@pytest.mark.parametrize("scheme", sorted(GOLDEN))
def test_golden_counters(scheme, golden_setup):
    cfg, trace = golden_setup
    rep = run_trace(scheme, trace, cfg, SimConfig())
    c = rep.counters
    got = dict(
        writes=c.total_writes,
        reads=c.total_reads,
        erases=c.erases,
        update_reads=c.update_reads,
        dram=c.dram_accesses,
    )
    assert got == GOLDEN[scheme]


def test_golden_relationships(golden_setup):
    g = GOLDEN
    # the paper's ordering on this across-heavy workload
    assert g["across"]["writes"] < g["ftl"]["writes"] < g["mrsm"]["writes"]
    assert g["across"]["reads"] < g["ftl"]["reads"]
    # MRSM trades RMW reads for mapping-tree DRAM traffic
    assert g["mrsm"]["update_reads"] < g["ftl"]["update_reads"]
    assert g["mrsm"]["dram"] > 10 * g["ftl"]["dram"]
