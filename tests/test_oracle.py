"""Sector-version oracle (repro.sim.oracle)."""

import pytest

from repro.sim.oracle import OracleMismatch, SectorOracle
from conftest import stamps_for


@pytest.fixture
def oracle():
    return SectorOracle()


class TestStamping:
    def test_stamps_monotone(self, oracle):
        """A write's format is one int version, increasing per write."""
        v1 = oracle.stamp_write(0, 4)
        v2 = oracle.stamp_write(100, 2)
        v3 = oracle.stamp_write(0, 4)
        assert all(type(v) is int for v in (v1, v2, v3))
        assert v1 < v2 < v3

    def test_stamps_cover_extent(self, oracle):
        v = oracle.stamp_write(10, 5)
        assert oracle.snapshot(8, 10) == stamps_for(10, 5, v)

    def test_written_sectors(self, oracle):
        oracle.stamp_write(0, 4)
        oracle.stamp_write(2, 4)
        assert oracle.written_sectors() == 6


def verify(oracle, off, size, found):
    """Verify ``found`` against a snapshot taken now, as a replay loop
    does for a read arriving at this point."""
    oracle.verify_expected(off, size, found, oracle.snapshot(off, size))


class TestVerification:
    def test_verify_ok(self, oracle):
        v = oracle.stamp_write(0, 4)
        verify(oracle, 0, 4, stamps_for(0, 4, v))
        assert oracle.reads_verified == 1

    def test_stale_detected(self, oracle):
        v1 = oracle.stamp_write(0, 4)
        oracle.stamp_write(0, 4)
        with pytest.raises(OracleMismatch):
            verify(oracle, 0, 4, stamps_for(0, 4, v1))

    def test_missing_detected(self, oracle):
        oracle.stamp_write(0, 4)
        with pytest.raises(OracleMismatch):
            verify(oracle, 0, 4, {})

    def test_phantom_detected(self, oracle):
        with pytest.raises(OracleMismatch):
            verify(oracle, 0, 4, {0: 99})

    def test_unwritten_ok_when_empty(self, oracle):
        verify(oracle, 100, 8, {})
        verify(oracle, 100, 8, None)

    def test_partial_extent_verification(self, oracle):
        v = oracle.stamp_write(0, 8)
        # reading a wider extent: unwritten tail must be absent
        found = stamps_for(0, 8, v)
        verify(oracle, 0, 16, found)
