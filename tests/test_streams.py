"""Hot/cold write-stream separation in the allocator."""


from repro.flash.service import FlashService
from repro.ftl.allocator import STREAM_GC, STREAM_USER, WriteAllocator
from repro.ftl.meta import KIND_DATA
from repro.ftl.pagemap import PageMapFTL


class TestAllocatorStreams:
    def test_shared_by_default(self, tiny_cfg):
        svc = FlashService(tiny_cfg)
        alloc = WriteAllocator(svc)
        a = alloc.allocate_in_plane(0, STREAM_USER)
        svc.array.program(a, KIND_DATA)
        b = alloc.allocate_in_plane(0, STREAM_GC)
        # same active block: GC stream aliases the user stream
        assert svc.geom.block_of_ppn(a) == svc.geom.block_of_ppn(b)

    def test_separated_streams_use_distinct_blocks(self, tiny_cfg):
        svc = FlashService(tiny_cfg)
        alloc = WriteAllocator(svc, separate_streams=True)
        a = alloc.allocate_in_plane(0, STREAM_USER)
        svc.array.program(a, KIND_DATA)
        b = alloc.allocate_in_plane(0, STREAM_GC)
        svc.array.program(b, KIND_DATA)
        assert svc.geom.block_of_ppn(a) != svc.geom.block_of_ppn(b)

    def test_both_streams_excluded_from_gc(self, tiny_cfg):
        svc = FlashService(tiny_cfg)
        alloc = WriteAllocator(svc, separate_streams=True)
        a = alloc.allocate_in_plane(0, STREAM_USER)
        svc.array.program(a, KIND_DATA)
        b = alloc.allocate_in_plane(0, STREAM_GC)
        svc.array.program(b, KIND_DATA)
        blocks = alloc.active_blocks()
        assert svc.geom.block_of_ppn(a) in blocks
        assert svc.geom.block_of_ppn(b) in blocks
        assert alloc.is_active(svc.geom.block_of_ppn(b))


class TestEndToEnd:
    def test_separation_survives_gc_pressure(self, micro_cfg):
        cfg = micro_cfg.replace(gc_policy="hot_cold")
        svc = FlashService(cfg)
        ftl = PageMapFTL(svc, track_payload=True)
        spp = ftl.spp
        hot = max(4, ftl.logical_pages // 8)
        version = {}
        for i in range(3 * svc.geom.num_pages):
            lpn = i % hot
            version[lpn] = i
            ftl.write(lpn * spp, spp, 0.0, i)
        assert svc.counters.erases > 0
        ftl.check_invariants()
        svc.array.check_invariants()
        for lpn, v in version.items():
            _, found = ftl.read(lpn * spp, spp, 0.0)
            assert all(found[s] == v for s in range(lpn * spp, (lpn + 1) * spp))

    def test_separation_reduces_migration_on_hot_cold_mix(self, micro_cfg):
        """With a static cold region and a hot overwrite region, stream
        separation must not migrate more than the shared allocator."""

        def run(separated: bool) -> int:
            cfg = micro_cfg.replace(
                gc_policy="hot_cold" if separated else "greedy"
            )
            svc = FlashService(cfg)
            ftl = PageMapFTL(svc)
            spp = ftl.spp
            n = ftl.logical_pages
            cold = n // 2
            for lpn in range(cold):  # cold data written once
                ftl.write(lpn * spp, spp, 0.0)
            hot = max(2, n // 16)
            for i in range(3 * svc.geom.num_pages):
                ftl.write((cold + i % hot) * spp, spp, 0.0)
            return ftl.gc.migrated_pages

        assert run(True) <= run(False) * 1.05
