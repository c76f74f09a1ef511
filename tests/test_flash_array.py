"""NAND protocol enforcement and block bookkeeping (repro.flash.array)."""

import pytest

from repro.config import SSDConfig
from repro.errors import FlashProtocolError, OutOfSpaceError
from repro.flash.array import PAGE_FREE, PAGE_INVALID, PAGE_VALID, FlashArray
from repro.geometry import FlashGeometry


@pytest.fixture
def arr():
    return FlashArray(FlashGeometry(SSDConfig.tiny()))


class TestProgram:
    def test_program_marks_valid(self, arr):
        arr.program(0, "meta")
        assert arr.page_state[0] == PAGE_VALID
        assert arr.read(0) == "meta"

    def test_sequential_program_required(self, arr):
        arr.program(0, "a")
        with pytest.raises(FlashProtocolError):
            arr.program(2, "skip")  # page 1 must come first

    def test_reprogram_rejected(self, arr):
        arr.program(0, "a")
        with pytest.raises(FlashProtocolError):
            arr.program(0, "again")

    def test_valid_count_tracks(self, arr):
        for p in range(4):
            arr.program(p, p)
        assert arr.valid_count[0] == 4

    def test_block_full(self, arr):
        ppb = arr.geom.pages_per_block
        for p in range(ppb):
            arr.program(p, p)
        assert arr.block_full(0)


class TestInvalidate:
    def test_invalidate(self, arr):
        arr.program(0, "a")
        arr.invalidate(0)
        assert arr.page_state[0] == PAGE_INVALID
        assert arr.valid_count[0] == 0

    def test_read_invalid_rejected(self, arr):
        arr.program(0, "a")
        arr.invalidate(0)
        with pytest.raises(FlashProtocolError):
            arr.read(0)

    def test_double_invalidate_rejected(self, arr):
        arr.program(0, "a")
        arr.invalidate(0)
        with pytest.raises(FlashProtocolError):
            arr.invalidate(0)

    def test_read_free_rejected(self, arr):
        with pytest.raises(FlashProtocolError):
            arr.read(0)

    def test_meta_dropped_on_invalidate(self, arr):
        arr.program(0, "a")
        arr.invalidate(0)
        assert 0 not in arr._meta


class TestErase:
    def test_erase_requires_no_valid(self, arr):
        arr.program(0, "a")
        with pytest.raises(FlashProtocolError):
            arr.erase(0)

    def test_erase_resets_block(self, arr):
        arr.program(0, "a")
        arr.invalidate(0)
        free_before = arr.free_block_count(0)
        arr.erase(0)
        assert arr.page_state[0] == PAGE_FREE
        assert arr.write_ptr[0] == 0
        assert arr.erase_count[0] == 1
        assert arr.free_block_count(0) == free_before + 1

    def test_erased_block_reprogrammable(self, arr):
        arr.program(0, "a")
        arr.invalidate(0)
        arr.erase(0)
        arr.program(0, "b")
        assert arr.read(0) == "b"

    def test_wear_accumulates(self, arr):
        for _ in range(3):
            arr.program(0, "x")
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
            arr.program(p, p)
        for p in range(0, 10, 2):
            arr.invalidate(p)
        arr.check_invariants()

    def test_valid_ppns_iterates_only_valid(self, arr):
        for p in range(8):
            arr.program(p, p)
        arr.invalidate(3)
        arr.invalidate(5)
        assert list(arr.valid_ppns(0)) == [0, 1, 2, 4, 6, 7]

    def test_total_valid_pages(self, arr):
        for p in range(5):
            arr.program(p, p)
        assert arr.total_valid_pages == 5
