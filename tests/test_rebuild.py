"""Power-loss recovery: mapping tables rebuilt from flash OOB records."""

import numpy as np
import pytest

from conftest import build_ftl, random_extents, stamps_for


def random_workload(ftl, n=300, seed=5):
    rng = np.random.default_rng(seed)
    spp = ftl.spp
    max_page = min(400, ftl.logical_pages - 4)
    versions = {}
    v = 0
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 0:
            b = int(rng.integers(1, max_page)) * spp
            off = b - int(rng.integers(1, spp // 2))
            size = min((b - off) + int(rng.integers(1, spp // 2)), spp)
        elif kind == 1:
            p = int(rng.integers(max_page))
            size = int(rng.integers(1, spp))
            off = p * spp + int(rng.integers(0, spp - size + 1))
        else:
            p = int(rng.integers(max_page - 3))
            off, size = p * spp, int(rng.integers(1, 3 * spp))
        v += 1
        versions.update(stamps_for(off, size, v))
        ftl.write(off, size, 0.0, v)
    return versions


def snapshot(ftl):
    state = {
        "pmt": ftl.pmt.copy(),
        "pmt_mask": ftl.pmt_mask.copy(),
        "map_ppn": dict(ftl._map_ppn),
    }
    if ftl.name == "across":
        state["aidx"] = ftl.aidx.copy()
        state["areas"] = {
            e.aidx: (e.lpn0, e.start, e.size, e.appn)
            for e in ftl.amt.entries()
        }
    if ftl.name == "mrsm":
        # the DRAM-side region columns, through the device-state seam
        seam = ftl.state()
        state["region_loc"] = seam["region_loc"]
        state["region_mask"] = seam["region_mask"]
    return state


def wipe(ftl):
    ftl.pmt.fill(-1)
    ftl.pmt_mask.fill(0)
    ftl._map_ppn.clear()
    if ftl.name == "across":
        ftl.amt.clear()
        ftl.aidx.fill(-1)
    if ftl.name == "mrsm":
        # the DRAM-side columns only: the slot records are flash (OOB)
        # content, which a power loss does not take
        ftl._rebuild_reset()
        assert ftl.region_count == 0 and not ftl.region_masks.any()


@pytest.mark.parametrize("scheme", ["ftl", "across", "mrsm"])
class TestRebuild:
    def test_tables_match_after_rebuild(self, scheme, tiny_cfg):
        svc, ftl = build_ftl(scheme, tiny_cfg)
        random_workload(ftl)
        before = snapshot(ftl)
        wipe(ftl)
        scanned = ftl.rebuild_from_flash()
        assert scanned == svc.array.total_valid_pages
        after = snapshot(ftl)
        assert np.array_equal(before["pmt"], after["pmt"])
        assert np.array_equal(before["pmt_mask"], after["pmt_mask"])
        assert before["map_ppn"] == after["map_ppn"]
        if "areas" in before:
            assert before["areas"] == after["areas"]
            assert np.array_equal(before["aidx"], after["aidx"])
        if "region_loc" in before:
            assert np.array_equal(before["region_loc"], after["region_loc"])
            assert np.array_equal(before["region_mask"], after["region_mask"])

    def test_data_readable_after_rebuild(self, scheme, tiny_cfg):
        svc, ftl = build_ftl(scheme, tiny_cfg)
        versions = random_workload(ftl, n=200, seed=9)
        wipe(ftl)
        ftl.rebuild_from_flash()
        ftl.check_invariants()
        for sec, v in list(versions.items())[::5]:
            _, found = ftl.read(sec, 1, 0.0)
            assert found.get(sec) == v, sec

    def test_rebuild_after_gc(self, scheme, micro_cfg):
        svc, ftl = build_ftl(scheme, micro_cfg)
        spp = ftl.spp
        hot = max(4, ftl.logical_pages // 8)
        for i in range(2 * svc.geom.num_pages):
            lpn = i % hot
            ftl.write(lpn * spp, spp, 0.0, i)
        assert svc.counters.erases > 0
        before = snapshot(ftl)
        wipe(ftl)
        ftl.rebuild_from_flash()
        after = snapshot(ftl)
        assert np.array_equal(before["pmt"], after["pmt"])
        ftl.check_invariants()

    def test_writes_continue_after_rebuild(self, scheme, tiny_cfg):
        svc, ftl = build_ftl(scheme, tiny_cfg)
        random_workload(ftl, n=150, seed=2)
        wipe(ftl)
        ftl.rebuild_from_flash()
        ftl.write(2056, 12, 0.0, 999)
        _, found = ftl.read(2056, 12, 0.0)
        assert all(v == 999 for v in found.values())
        ftl.check_invariants()


def region_tables(ftl):
    seam = ftl.state()
    return seam["region_loc"].tolist(), seam["region_mask"].tolist()


@pytest.mark.parametrize("regions", [1, 2, 4, 8])
class TestRegionColumnsRebuild:
    """MRSM's DRAM-side columns (key -> slot location, key -> mask) come
    back from the flash-side slot columns alone."""

    def test_after_gc(self, regions, micro_cfg):
        svc, ftl = build_ftl("mrsm", micro_cfg, regions_per_page=regions)
        rng = np.random.default_rng(regions)
        span = int(ftl.logical_pages * ftl.spp * 0.4)
        for off, size in random_extents(rng, 3 * svc.geom.num_pages, span, ftl.spp):
            ftl.write(off, size, 0.0, off)
        assert svc.counters.erases > 0 and ftl.gc.migrated_pages > 0
        before = region_tables(ftl)
        oob = {name: col.copy() for name, col in svc.array.oob.items()}
        wipe(ftl)
        ftl.rebuild_from_flash()
        assert region_tables(ftl) == before
        assert ftl.region_count == sum(loc >= 0 for loc in before[0])
        # recovery read the slot columns and left them as they were
        for name, col in svc.array.oob.items():
            assert np.array_equal(col, oob[name]), name
        ftl.check_invariants()

    def test_after_trim(self, regions, tiny_cfg):
        """A whole-region TRIM killed a slot — flash content, so it
        stays trimmed; a partial one only narrowed the DRAM mask and is
        forgotten (the documented caveat of ``rebuild_from_flash``)."""
        svc, ftl = build_ftl("mrsm", tiny_cfg, regions_per_page=regions)
        rs = ftl.region_sectors
        ftl.write(0, 4 * rs, 0.0, 1)
        written = region_tables(ftl)
        ftl.trim(rs, rs, 1.0)          # region 1, whole
        ftl.trim(2 * rs, 1, 1.0)       # region 2, first sector
        if rs > 1:
            assert ftl.region_masks[2] == ((1 << rs) - 1) & ~1
        wipe(ftl)
        ftl.rebuild_from_flash()
        assert ftl.region_loc(1) is None
        locs, masks = region_tables(ftl)
        assert locs[0] == written[0][0] and locs[3] == written[0][3]
        if rs > 1:
            assert locs[2] == written[0][2]
            assert masks[2] == (1 << rs) - 1  # the trimmed sector is back
            _, found = ftl.read(2 * rs, 1, 2.0)
            assert found == {2 * rs: 1}
        _, found = ftl.read(rs, rs, 2.0)
        assert found == {}
        ftl.check_invariants()


class TestRebuildEdgeCases:
    def test_empty_device(self, tiny_cfg):
        svc, ftl = build_ftl("across", tiny_cfg)
        assert ftl.rebuild_from_flash() == 0

    def test_amt_indices_preserved_and_free_list_rebuilt(self, tiny_cfg):
        svc, ftl = build_ftl("across", tiny_cfg)
        # create three areas, roll one back (freeing its index)
        ftl.write(2056, 12, 0.0)
        ftl.write(4104, 12, 0.0)
        ftl.write(6152, 12, 0.0)
        ftl.write(4100, 16, 0.0)  # rollback of the middle area
        live_before = {e.aidx for e in ftl.amt.entries()}
        wipe(ftl)
        ftl.rebuild_from_flash()
        assert {e.aidx for e in ftl.amt.entries()} == live_before
        # the freed index is reusable again
        ftl.write(4104, 12, 0.0)
        ftl.check_invariants()

    def test_data_pages_come_back_from_the_columns_alone(self, tiny_cfg):
        """The data half of the scan is three column operations: PPN and
        mask of every ``KIND_DATA`` row land at the row's LPN."""
        from repro.ftl.meta import KIND_DATA

        svc, ftl = build_ftl("ftl", tiny_cfg)
        arr = svc.array
        random_workload(ftl, n=120, seed=4)
        rows = np.flatnonzero(arr.kind == KIND_DATA)
        assert rows.size == arr.total_valid_pages > 0
        wipe(ftl)
        assert ftl.rebuild_from_flash() == rows.size
        assert np.array_equal(ftl.pmt[arr.a[rows]], rows)
        assert np.array_equal(ftl.pmt_mask[arr.a[rows]], arr.b[rows])
        assert np.count_nonzero(ftl.pmt >= 0) == rows.size

    def test_two_valid_pages_claiming_one_lpn_are_refused(self, tiny_cfg):
        from repro.errors import MappingError

        svc, ftl = build_ftl("ftl", tiny_cfg)
        ftl.write(0, ftl.spp, 0.0)
        ftl.write(5 * ftl.spp, ftl.spp, 0.0)
        # corrupt the OOB record of LPN 5's page: it now claims LPN 0
        svc.array.a[ftl.pmt[5]] = 0
        with pytest.raises(MappingError, match="two valid data pages claim LPN 0"):
            ftl.rebuild_from_flash()

    def test_bad_block_counter_is_not_a_table(self, micro_cfg):
        """Retired blocks are flash state: the counter equals the
        ``is_bad`` column before and after a table rebuild."""
        svc, ftl = build_ftl("ftl", micro_cfg)
        ftl.write(0, ftl.spp, 0.0)
        arr = svc.array
        svc.retire(arr.pop_free_block(0), 0.0)
        assert arr.total_bad_blocks == 1 == int(arr.is_bad.sum())
        ftl.rebuild_from_flash()
        assert arr.total_bad_blocks == 1 == int(arr.is_bad.sum())
