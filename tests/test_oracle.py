"""Sector-version oracle (repro.sim.oracle)."""

import pytest

from repro.sim.oracle import OracleMismatch, SectorOracle


@pytest.fixture
def oracle():
    return SectorOracle()


class TestStamping:
    def test_stamps_monotone(self, oracle):
        s1 = oracle.stamp_write(0, 4)
        s2 = oracle.stamp_write(0, 4)
        assert all(s2[k] > s1[k] for k in s1)

    def test_stamps_cover_extent(self, oracle):
        s = oracle.stamp_write(10, 5)
        assert set(s) == {10, 11, 12, 13, 14}

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
        s = oracle.stamp_write(0, 4)
        verify(oracle, 0, 4, dict(s))
        assert oracle.reads_verified == 1

    def test_stale_detected(self, oracle):
        s1 = oracle.stamp_write(0, 4)
        oracle.stamp_write(0, 4)
        with pytest.raises(OracleMismatch):
            verify(oracle, 0, 4, dict(s1))

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
        s = oracle.stamp_write(0, 8)
        # reading a wider extent: unwritten tail must be absent
        found = dict(s)
        verify(oracle, 0, 16, found)
