"""Stateful (rule-based) property testing of the FTL schemes.

Hypothesis drives an arbitrary interleaving of writes, reads, trims,
forced GC and invariant checks against a per-sector reference model.
Unlike the list-of-ops property tests, the machine can shrink a failing
interleaving to a minimal reproducing sequence of API calls.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.config import SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl

CFG = SSDConfig(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=10,
    pages_per_block=8,
    page_size_bytes=8 * 1024,
    write_buffer_bytes=0,
)
SPP = CFG.sectors_per_page
MAX_SECTOR = CFG.logical_pages * SPP

offsets = st.integers(0, MAX_SECTOR - 2)
sizes = st.integers(1, 3 * SPP)
boundaries = st.integers(1, MAX_SECTOR // SPP - 1)
halves = st.integers(1, SPP - 1)


class FTLMachine(RuleBasedStateMachine):
    scheme = "across"

    @initialize()
    def setup(self):
        self.service = FlashService(CFG)
        self.ftl = make_ftl(self.scheme, self.service, track_payload=True)
        self.model: dict[int, int] = {}
        self.version = 0
        self.ops = 0

    def _write(self, offset: int, size: int):
        size = max(1, min(size, MAX_SECTOR - offset))
        self.version += 1
        for s in range(offset, offset + size):
            self.model[s] = self.version
        self.ftl.write(offset, size, 0.0, self.version)
        self.ops += 1

    @rule(offset=offsets, size=sizes)
    def write_extent(self, offset, size):
        self._write(offset, size)

    @rule(b=boundaries, left=halves, right=halves)
    def write_across(self, b, left, right):
        boundary = b * SPP
        start = max(0, boundary - left)
        size = min(left + right, SPP, MAX_SECTOR - start)
        self._write(start, max(1, size))

    @rule(offset=offsets, size=sizes)
    def trim_extent(self, offset, size):
        size = max(1, min(size, MAX_SECTOR - offset))
        self.ftl.trim(offset, size, 0.0)
        for s in range(offset, offset + size):
            self.model.pop(s, None)
        self.ops += 1

    @rule(offset=offsets, size=sizes)
    def read_and_verify(self, offset, size):
        size = max(1, min(size, MAX_SECTOR - offset))
        _, found = self.ftl.read(offset, size, 0.0)
        for s in range(offset, offset + size):
            assert found.get(s) == self.model.get(s), s

    @precondition(lambda self: self.ops > 5)
    @rule()
    def force_gc(self):
        for plane in range(self.service.num_planes):
            self.ftl.gc.collect_once(self.ftl, plane, 0.0)

    @invariant()
    def structures_consistent(self):
        if getattr(self, "ftl", None) is None:
            return
        self.ftl.check_invariants()
        self.service.array.check_invariants()


class AcrossMachine(FTLMachine):
    scheme = "across"


class PageMapMachine(FTLMachine):
    scheme = "ftl"


class MRSMMachine(FTLMachine):
    scheme = "mrsm"


TestAcrossStateful = AcrossMachine.TestCase
TestAcrossStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestPageMapStateful = PageMapMachine.TestCase
TestPageMapStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestMRSMStateful = MRSMMachine.TestCase
TestMRSMStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
