#!/usr/bin/env python
"""Power-loss recovery demo (library extension).

DRAM mapping tables vanish on power loss; a real FTL rebuilds them by
scanning the out-of-band records of every valid flash page.  This demo
runs a VDI workload under Across-FTL, "pulls the plug" (loads the DRAM
state of a device that has just powered on: empty PMT, across-page
mapping table and AIdx references), rebuilds from flash, and proves
both the table state and the user data survive — including the
re-aligned across-page areas.  The before/after comparison is the
FTL's own ``state()`` — the device-state seam behind aged-device images
(docs/architecture.md) — so it covers every table the scheme keeps, not
a list kept by hand here.

Run:  python examples/power_loss_recovery.py [--requests N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import (
    SimConfig,
    SSDConfig,
    SyntheticSpec,
    generate_trace,
    make_ftl,
    Simulator,
)
from repro.flash.service import FlashService


def same_table(a, b) -> bool:
    """Equal as tables: rows of a dict-backed table may come back in
    another order (the rebuild scans flash in physical-page order)."""
    if isinstance(a, np.ndarray) and a.ndim == 2:
        return np.array_equal(np.unique(a, axis=0), np.unique(b, axis=0))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--requests", type=int, default=6_000)
    args = ap.parse_args()

    cfg = SSDConfig.bench_default()
    service = FlashService(cfg)
    ftl = make_ftl("across", service, track_payload=True)
    sim = Simulator(ftl, SimConfig(check_oracle=True))

    spec = SyntheticSpec(
        name="recovery",
        requests=args.requests,
        write_ratio=0.7,
        across_ratio=0.25,
        mean_write_kb=9.0,
        footprint_sectors=int(cfg.logical_sectors * 0.5),
        seed=17,
    )
    trace = generate_trace(spec)
    sim.run(trace)
    print(cfg.summary())
    print(
        f"\nworkload done: {len(trace)} requests, "
        f"{int((ftl.pmt >= 0).sum())} mapped pages, "
        f"{len(ftl.amt)} live across-page areas, "
        f"oracle verified {sim.oracle.reads_verified} reads"
    )

    # --- power loss: all DRAM state gone -----------------------------
    before = ftl.state()
    ftl.load_state(make_ftl("across", FlashService(cfg)).state())
    print("\n*** power loss: PMT, AMT and AIdx references wiped ***")
    assert not (ftl.pmt >= 0).any() and len(ftl.amt) == 0

    t0 = time.perf_counter()
    scanned = ftl.rebuild_from_flash()
    dt = time.perf_counter() - t0
    after = ftl.state()
    print(
        f"rebuild: scanned {scanned} valid pages in {dt:.2f}s -> "
        f"{int((ftl.pmt >= 0).sum())} mapped pages, "
        f"{len(ftl.amt)} across-page areas"
    )
    lost = [name for name in before if not same_table(before[name], after[name])]
    for name in before:
        print(f"  {name:<14} {'lost' if name in lost else 'recovered'}")
    # AMT allocation history and the Fig. 8 statistics lived in DRAM
    # only; every mapping table must come back from flash
    assert set(lost) <= {"amt_free", "amt_alloc", "across_stats"}, lost
    ftl.check_invariants()

    # every sector the oracle knows must read back with its newest stamp
    checked = 0
    for sec, stamp in list(sim.oracle._versions.items())[::17]:
        _, found = ftl.read(sec, 1, 0.0)
        assert found.get(sec) == stamp, sec
        checked += 1
    print(
        f"verified {checked} sampled sectors return their newest version "
        "after recovery — tables and data intact"
    )


if __name__ == "__main__":
    main()
