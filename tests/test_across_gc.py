"""Across-FTL under garbage collection: area pages migrate correctly."""

import pytest

from conftest import build_ftl, relocate_each_programmed_page, stamps_for
from repro.flash.service import FlashService
from repro.core.across import AcrossFTL


@pytest.fixture
def setup(micro_cfg):
    svc = FlashService(micro_cfg)
    return svc, AcrossFTL(svc, track_payload=True)


class TestAreaRelocation:
    def test_gc_updates_amt(self, setup):
        svc, ftl = setup
        spp = ftl.spp
        ftl.write(2056, 12, 0.0)
        entry = next(ftl.amt.entries())
        old_appn = entry.appn
        # force relocation of the area page directly
        ftl._relocate(old_appn, 0.0, True)
        assert entry.appn != old_appn
        assert svc.array.is_valid(entry.appn)
        assert not svc.array.is_valid(old_appn)
        ftl.check_invariants()

    def test_gc_pressure_preserves_area_data(self, setup):
        svc, ftl = setup
        spp = ftl.spp
        # one across area with stamped data
        ftl.write(2056, 12, 0.0, 777)
        # hammer the device until GC has cycled many blocks
        hot = max(4, ftl.logical_pages // 8)
        base = 200  # keep away from the area's lpns (128/129)
        for i in range(3 * svc.geom.num_pages):
            lpn = base + (i % hot)
            ftl.write(lpn * spp, spp, 0.0, i)
        assert svc.counters.erases > 0
        _, found = ftl.read(2056, 12, 0.0)
        assert all(found[s] == 777 for s in range(2056, 2068))
        ftl.check_invariants()

    def test_sustained_across_workload_under_gc(self, setup):
        svc, ftl = setup
        spp = ftl.spp
        import numpy as np

        rng = np.random.default_rng(3)
        version = {}
        v = 0
        n_boundaries = ftl.logical_pages - 1
        for i in range(2 * svc.geom.num_pages):
            v += 1
            b = int(rng.integers(1, min(64, n_boundaries)))
            boundary = b * spp
            left = int(rng.integers(1, spp // 2))
            right = int(rng.integers(1, spp // 2))
            off, size = boundary - left, left + right
            for s in range(off, off + size):
                version[s] = v
            ftl.write(off, size, 0.0, v)
        assert svc.counters.erases > 0
        ftl.check_invariants()
        svc.array.check_invariants()
        # verify a sample of sectors
        import itertools

        for s, expect in itertools.islice(version.items(), 0, None, 7):
            _, found = ftl.read(s, 1, 0.0)
            assert found.get(s) == expect, s


class TestProgramRecordGcCheck:
    def test_amt_names_the_area_before_the_gc_check(self, tiny_cfg):
        """program -> AMT entry / AIdx -> GC check at every site that
        programs an across page (direct write, both AMerge flavours): a
        pass that takes the block just filled finds the area through
        the AMT.  The PMT mask is shadowed after the check, so the full
        invariant sweep only holds once the write returns."""
        svc, ftl = build_ftl("across", tiny_cfg)
        moved = relocate_each_programmed_page(
            ftl, "across", invariants_hold=False
        )
        versions = {}
        for v, (off, size) in enumerate(
            [
                (0, 64),     # normal data under the area to come
                (24, 12),    # direct write: area over pages 1|2
                (26, 8),     # across-page update inside it: profitable
                (22, 4),     # one-page update beside it: unprofitable
                (2056, 12),  # direct write onto never-written pages
            ]
        ):
            versions.update(stamps_for(off, size, v))
            ftl.write(off, size, 0.0, v)
            ftl.check_invariants()
        st = ftl.across_stats
        assert (
            st.direct_writes, st.profitable_amerge, st.unprofitable_amerge
        ) == (2, 1, 1)
        assert len(moved) == 4
        assert not any(svc.array.is_valid(ppn) for ppn in moved)
        for sec, v in versions.items():
            assert ftl.read(sec, 1, 0.0)[1] == {sec: v}
        svc.array.check_invariants()
