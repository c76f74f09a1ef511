"""FlashService facade: counters, kinds, timed/untimed ops."""

import pytest

from repro.config import SSDConfig
from repro.flash.service import FlashService
from repro.ftl.meta import KIND_DATA
from repro.metrics.counters import OpKind

#: the record the pages of this file are programmed with
REC = (KIND_DATA, 0, 0, 0)


@pytest.fixture
def svc():
    return FlashService(SSDConfig.tiny())


class TestCounting:
    def test_data_write_counted(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.DATA)
        assert svc.counters.data_writes == 1
        assert svc.counters.total_writes == 1

    def test_map_write_counted_separately(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.MAP)
        assert svc.counters.map_writes == 1
        assert svc.counters.data_writes == 0

    def test_read_counted(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.DATA)
        svc.read_page(0, 0.0, OpKind.DATA)
        assert svc.counters.data_reads == 1

    def test_gc_ops_separate(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.GC)
        svc.read_page(0, 0.0, OpKind.GC)
        assert svc.counters.gc_writes == 1
        assert svc.counters.gc_reads == 1
        # GC ops still count into the measured totals
        assert svc.counters.total_writes == 1
        assert svc.counters.total_reads == 1

    def test_aging_excluded_from_totals(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.AGING)
        assert svc.counters.total_writes == 0

    def test_erase_counting(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.DATA)
        svc.invalidate(0)
        svc.erase_block(0, 0.0)
        assert svc.counters.erases == 1

    def test_aging_erase_separate(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.AGING)
        svc.invalidate(0)
        svc.erase_block(0, 0.0, aging=True)
        assert svc.counters.erases == 0
        assert svc.counters.aging_erases == 1


class TestTiming:
    def test_timed_program_advances_chip(self, svc):
        t = svc.program_page(0, REC, 1.0, OpKind.DATA)
        assert t == pytest.approx(3.0)

    def test_untimed_ops_do_not_occupy(self, svc):
        t = svc.program_page(0, REC, 1.0, OpKind.AGING, timed=False)
        assert t == 1.0
        assert (svc.timeline.busy_until == 0).all()

    def test_erase_occupies_chip(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.DATA)
        svc.invalidate(0)
        t = svc.erase_block(0, 10.0)
        assert t == pytest.approx(13.5)

    def test_read_untimed(self, svc):
        svc.program_page(0, REC, 0.0, OpKind.DATA, timed=False)
        assert svc.read_page(0, 5.0, OpKind.DATA, timed=False) == 5.0


def test_free_fraction_passthrough(svc):
    assert svc.free_fraction(0) == 1.0
    svc.pop_free_block(0)
    assert svc.free_fraction(0) < 1.0


def test_num_planes(svc):
    assert svc.num_planes == SSDConfig.tiny().num_planes
