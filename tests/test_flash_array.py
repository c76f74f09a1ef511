"""NAND protocol enforcement and block bookkeeping (repro.flash.array)."""

import pytest

from repro.config import SSDConfig
from repro.errors import FlashProtocolError, OutOfSpaceError
from repro.flash.array import PAGE_FREE, PAGE_INVALID, PAGE_VALID, FlashArray
from repro.ftl.meta import KIND_ACROSS, KIND_DATA, KIND_MAP, KIND_REGION
from repro.geometry import FlashGeometry


@pytest.fixture
def arr():
    return FlashArray(FlashGeometry(SSDConfig.tiny()))


class TestProgram:
    def test_program_marks_valid(self, arr):
        arr.program(0, KIND_DATA, 7, 0b11)
        assert arr.page_state[0] == PAGE_VALID
        arr.read(0)
        assert arr.total_page_reads == 1
        assert arr.record(0) == (KIND_DATA, 7, 0b11, 0)
        meta = arr.meta(0)
        assert (meta.kind, meta.lpn, meta.mask, meta.payload) == ("data", 7, 3, None)

    def test_sequential_program_required(self, arr):
        arr.program(0, KIND_DATA, 0)
        with pytest.raises(FlashProtocolError):
            arr.program(2, KIND_DATA, 2)  # page 1 must come first

    def test_reprogram_rejected(self, arr):
        arr.program(0, KIND_DATA, 0)
        with pytest.raises(FlashProtocolError):
            arr.program(0, KIND_DATA, 0)

    def test_valid_count_tracks(self, arr):
        for p in range(4):
            arr.program(p, KIND_DATA, p)
        assert arr.valid_count[0] == 4

    def test_block_full(self, arr):
        ppb = arr.geom.pages_per_block
        for p in range(ppb):
            arr.program(p, KIND_DATA, p)
        assert arr.block_full(0)


class TestInvalidate:
    def test_invalidate(self, arr):
        arr.program(0, KIND_DATA, 0)
        arr.invalidate(0)
        assert arr.page_state[0] == PAGE_INVALID
        assert arr.valid_count[0] == 0

    def test_read_invalid_rejected(self, arr):
        arr.program(0, KIND_DATA, 0)
        arr.invalidate(0)
        with pytest.raises(FlashProtocolError):
            arr.read(0)

    def test_double_invalidate_rejected(self, arr):
        arr.program(0, KIND_DATA, 0)
        arr.invalidate(0)
        with pytest.raises(FlashProtocolError):
            arr.invalidate(0)

    def test_read_free_rejected(self, arr):
        with pytest.raises(FlashProtocolError):
            arr.read(0)

    def test_meta_dropped_on_invalidate(self, arr):
        arr.program(0, KIND_DATA, 0)
        arr.invalidate(0)
        assert arr.kind[0] == 0
        with pytest.raises(KeyError):
            arr.meta(0)


class TestErase:
    def test_erase_requires_no_valid(self, arr):
        arr.program(0, KIND_DATA, 0)
        with pytest.raises(FlashProtocolError):
            arr.erase(0)

    def test_erase_resets_block(self, arr):
        arr.program(0, KIND_DATA, 0)
        arr.invalidate(0)
        free_before = arr.free_block_count(0)
        arr.erase(0)
        assert arr.page_state[0] == PAGE_FREE
        assert arr.write_ptr[0] == 0
        assert arr.erase_count[0] == 1
        assert arr.free_block_count(0) == free_before + 1

    def test_erased_block_reprogrammable(self, arr):
        arr.program(0, KIND_DATA, 0)
        arr.invalidate(0)
        arr.erase(0)
        arr.program(0, KIND_DATA, 9)
        assert arr.meta(0).lpn == 9

    def test_wear_accumulates(self, arr):
        for _ in range(3):
            arr.program(0, KIND_DATA, 0)
            arr.invalidate(0)
            arr.erase(0)
        assert arr.erase_count[0] == 3
        assert arr.total_erases == 3


class TestFreePool:
    def test_initial_pool_full(self, arr):
        assert arr.free_block_count(0) == arr.geom.blocks_per_plane
        assert arr.free_fraction(0) == 1.0

    def test_pop_free_block(self, arr):
        b = arr.pop_free_block(0)
        assert arr.geom.plane_of_block(b) == 0
        assert arr.free_block_count(0) == arr.geom.blocks_per_plane - 1

    def test_pool_exhaustion(self, arr):
        for _ in range(arr.geom.blocks_per_plane):
            arr.pop_free_block(1)
        with pytest.raises(OutOfSpaceError):
            arr.pop_free_block(1)

    def test_total_free_blocks(self, arr):
        total = arr.total_free_blocks()
        arr.pop_free_block(0)
        assert arr.total_free_blocks() == total - 1


class TestInvariants:
    def test_clean_state_passes(self, arr):
        arr.check_invariants()

    def test_after_activity_passes(self, arr):
        for p in range(10):
            arr.program(p, KIND_DATA, p)
        for p in range(0, 10, 2):
            arr.invalidate(p)
        arr.check_invariants()

    def test_valid_ppns_iterates_only_valid(self, arr):
        for p in range(8):
            arr.program(p, KIND_DATA, p)
        arr.invalidate(3)
        arr.invalidate(5)
        assert list(arr.valid_ppns(0)) == [0, 1, 2, 4, 6, 7]

    def test_total_valid_pages(self, arr):
        for p in range(5):
            arr.program(p, KIND_DATA, p)
        assert arr.total_valid_pages == 5


class TestRecordColumns:
    def test_every_kind_round_trips_through_meta(self, arr):
        arr.program(0, KIND_DATA, 5, 0xF0)
        arr.program(1, KIND_MAP, 2, 11)
        arr.program(2, KIND_REGION)
        arr.program(3, KIND_ACROSS, 4, 100, 6, {100: 1})
        assert [arr.meta(p).kind for p in range(4)] == [
            "data", "map", "region", "across",
        ]
        assert (arr.meta(1).table_id, arr.meta(1).tvpn) == (2, 11)
        across = arr.meta(3)
        assert (across.aidx, across.start, across.size) == (4, 100, 6)
        assert across.payload == {100: 1}
        assert arr.payloads == {3: {100: 1}}
        arr.invalidate(3)
        assert arr.payloads == {}

    def test_views_share_memory_with_scalar_writes(self, arr):
        arr.program(0, KIND_DATA, 5, 1 << 63)
        assert arr.kind[0] == KIND_DATA
        assert arr.a[0] == 5 and int(arr.b[0]) == 1 << 63 and arr.c[0] == 0

    def test_invariants_catch_a_record_without_a_valid_page(self, arr):
        arr.program(0, KIND_DATA, 5)
        arr.kind[1] = KIND_DATA
        with pytest.raises(FlashProtocolError, match="PPN 1"):
            arr.check_invariants()
        arr.kind[1] = 0
        arr.kind[0] = 0
        with pytest.raises(FlashProtocolError, match="PPN 0"):
            arr.check_invariants()

    def test_state_zeroes_stale_records_and_restores_columns(self, arr):
        arr.program(0, KIND_ACROSS, 4, 100, 6)
        arr.program(1, KIND_DATA, 5, 3)
        arr.invalidate(0)
        s = arr.state()
        assert s["kind"][:2].tolist() == [0, KIND_DATA]
        assert (s["a"][0], s["b"][0], s["c"][0]) == (0, 0, 0)
        assert arr.a[0] == 4  # the live column keeps the stale field
        other = FlashArray(arr.geom)
        other.load_state(s)
        assert other.record(1) == (KIND_DATA, 5, 3, 0)
        other.check_invariants()

    def test_state_refuses_payload_stamps(self, arr):
        arr.program(0, KIND_DATA, 5, 3, 0, {40: 1})
        with pytest.raises(ValueError, match="payload"):
            arr.state()


class TestCopyRun:
    """``copy_run`` against the scalar read / program / invalidate chain."""

    def scalar(self, arr, src, dst):
        for s, d in zip(src, range(dst, dst + len(src))):
            arr.read(s)
            arr.program(d, *arr.record(s))
            arr.invalidate(s)

    def filled(self):
        arr = FlashArray(FlashGeometry(SSDConfig.tiny()))
        for p in range(8):
            arr.program(p, KIND_DATA + p % 4, p, p * 3, p % 5)
        arr.invalidate(2)
        return arr

    def test_matches_the_scalar_chain(self):
        import numpy as np

        ppb = SSDConfig.tiny().pages_per_block
        a, b = self.filled(), self.filled()
        src = [0, 1, 3, 6]
        self.scalar(a, src, ppb)
        b.copy_run(np.array(src), ppb)
        sa, sb = a.state(), b.state()
        assert sa.keys() == sb.keys()
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name
        b.check_invariants()

    def test_checks_are_kept(self):
        import numpy as np

        ppb = SSDConfig.tiny().pages_per_block
        arr = self.filled()
        with pytest.raises(FlashProtocolError, match="non-valid PPN 2"):
            arr.copy_run(np.array([1, 2]), ppb)
        with pytest.raises(FlashProtocolError, match="out-of-order"):
            arr.copy_run(np.array([0, 1]), ppb + 1)
        ppb4 = 2 * ppb - 4
        for p in range(ppb, ppb4):
            arr.program(p, KIND_DATA, p)
        with pytest.raises(FlashProtocolError, match="out-of-order"):
            arr.copy_run(np.array([0, 1, 3, 4, 5]), ppb4)


class TestBadBlockCounter:
    def test_counts_retirements_and_survives_a_restore(self, arr):
        assert arr.total_bad_blocks == 0
        arr.retire_block(3)
        arr.retire_block(5)
        assert arr.total_bad_blocks == 2 == int(arr.is_bad.sum())
        other = FlashArray(arr.geom)
        other.load_state(arr.state())
        assert other.total_bad_blocks == 2 == int(other.is_bad.sum())
