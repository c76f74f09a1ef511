"""Sector-version oracle.

Ground truth for data correctness: every host write gets one fresh
monotone version, which the FTL stores as the stamp of each sector it
writes; the per-sector stamps travel inside page metadata, survive
merges, rollbacks and GC migrations, and every read must return
exactly the newest stamp for each sector it covers.  Any divergence
raises :class:`OracleMismatch` with a precise description — this is
the contract all three schemes are tested against.
"""

from __future__ import annotations

from ..errors import ReproError


class OracleMismatch(ReproError):
    """An FTL returned stale, foreign or missing data."""


class SectorOracle:
    """Monotone version stamps per absolute sector."""

    def __init__(self):
        self._versions: dict[int, int] = {}
        self._counter = 0
        self.writes_stamped = 0
        self.reads_verified = 0

    def stamp_write(self, offset: int, size: int) -> int:
        """Record a fresh version for every sector of
        ``[offset, offset+size)``; returns that version, which the FTL
        write path stores as each written sector's stamp."""
        self._counter += 1
        v = self._counter
        versions = self._versions
        for sec in range(offset, offset + size):
            versions[sec] = v
        self.writes_stamped += 1
        return v

    def trim(self, offset: int, size: int) -> None:
        """Forget stamps for a trimmed extent: subsequent reads must
        return nothing for these sectors."""
        for sec in range(offset, offset + size):
            self._versions.pop(sec, None)

    def snapshot(self, offset: int, size: int) -> dict[int, int]:
        """Current versions of ``[offset, offset+size)`` — the stamps a
        read arriving *now* must observe.  Both replay loops snapshot
        every read at arrival and verify the completion against the
        snapshot (:meth:`verify_expected`), so the event frontend's
        hazard-ordered out-of-order execution is held to the same
        arrival semantics as the sequential loop."""
        versions = self._versions
        return {
            sec: versions[sec]
            for sec in range(offset, offset + size)
            if sec in versions
        }

    def verify_expected(
        self, offset: int, size: int, found: dict | None, expected: dict
    ) -> None:
        """Check a read result against the version map ``expected``
        (a :meth:`snapshot` taken when the read arrived)."""
        found = found or {}
        for sec in range(offset, offset + size):
            expected_v = expected.get(sec)
            got = found.get(sec)
            if expected_v is None:
                if got is not None:
                    raise OracleMismatch(
                        f"sector {sec}: never written but read returned "
                        f"stamp {got}"
                    )
            elif got != expected_v:
                raise OracleMismatch(
                    f"sector {sec}: expected stamp {expected_v}, got {got}"
                )
        self.reads_verified += 1

    def written_sectors(self) -> int:
        """Number of distinct sectors currently holding live data."""
        return len(self._versions)
