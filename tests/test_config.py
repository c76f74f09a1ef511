"""Configuration validation and paper presets (Table 1)."""

import pytest

from repro.config import SCHEMES, SimConfig, SSDConfig, TimingConfig
from repro.errors import ConfigError


class TestTable1Preset:
    """The exact settings of paper Table 1."""

    def test_block_number(self):
        assert SSDConfig.paper_table1().num_blocks == 262_144

    def test_pages_per_block(self):
        assert SSDConfig.paper_table1().pages_per_block == 64

    def test_page_size(self):
        assert SSDConfig.paper_table1().page_size_bytes == 8 * 1024

    def test_gc_threshold(self):
        assert SSDConfig.paper_table1().gc_threshold == pytest.approx(0.10)

    def test_read_time(self):
        assert SSDConfig.paper_table1().timing.read_ms == pytest.approx(0.075)

    def test_write_time(self):
        assert SSDConfig.paper_table1().timing.program_ms == pytest.approx(2.0)

    def test_cache_access(self):
        assert SSDConfig.paper_table1().timing.cache_access_ms == pytest.approx(
            0.001
        )

    def test_capacity_128gib(self):
        assert SSDConfig.paper_table1().physical_bytes == 128 * 1024**3


class TestDerivedGeometry:
    def test_counts_consistent(self):
        cfg = SSDConfig.tiny()
        assert cfg.num_planes == (
            cfg.channels
            * cfg.chips_per_channel
            * cfg.dies_per_chip
            * cfg.planes_per_die
        )
        assert cfg.num_pages == cfg.num_blocks * cfg.pages_per_block
        assert cfg.logical_pages < cfg.num_pages

    def test_logical_space_respects_op(self):
        cfg = SSDConfig.tiny()
        assert cfg.logical_pages == int(cfg.num_pages * (1 - cfg.op_ratio))

    def test_sectors_per_page(self):
        assert SSDConfig.tiny().sectors_per_page == 16


class TestValidation:
    def test_bad_channel_count(self):
        with pytest.raises(ConfigError):
            SSDConfig(channels=0).validate()

    def test_bad_page_size(self):
        with pytest.raises(ConfigError):
            SSDConfig(page_size_bytes=1000).validate()

    def test_bad_gc_threshold(self):
        with pytest.raises(ConfigError):
            SSDConfig(gc_threshold=1.5).validate()

    def test_gc_restore_below_threshold(self):
        with pytest.raises(ConfigError):
            SSDConfig(gc_threshold=0.2, gc_restore=0.1).validate()

    def test_bad_op_ratio(self):
        with pytest.raises(ConfigError):
            SSDConfig(op_ratio=0.0).validate()

    def test_bad_timing(self):
        with pytest.raises(ConfigError):
            TimingConfig(read_ms=0.0).validate()

    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            SSDConfig.tiny().replace(channels=-1)

    def test_replace_applies(self):
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=1024 * 1024)
        assert cfg.write_buffer_bytes == 1024 * 1024


class TestPageSizeSweep:
    def test_capacity_preserved(self):
        base = SSDConfig.tiny()
        for page in (4096, 16384):
            cfg = base.with_page_size(page)
            assert cfg.page_size_bytes == page
            # capacity within one block rounding of the original
            assert abs(cfg.physical_bytes - base.physical_bytes) <= (
                base.physical_bytes * 0.05
            )

    def test_same_size_noop(self):
        cfg = SSDConfig.tiny().with_page_size(8192)
        assert cfg.pages_per_block == SSDConfig.tiny().pages_per_block


class TestSimConfig:
    def test_paper_aging(self):
        sc = SimConfig.paper_aging()
        assert sc.aged_used == pytest.approx(0.90)
        assert sc.aged_valid == pytest.approx(0.398)
        sc.validate()

    def test_bad_aging(self):
        with pytest.raises(ConfigError):
            SimConfig(aged_used=0.5, aged_valid=0.6).validate()

    def test_schemes_constant(self):
        assert SCHEMES == ("ftl", "mrsm", "across")

    def test_qos_streams_valid(self):
        SimConfig(qos_streams=(16, 32, 4096)).validate()
        SimConfig(qos_streams=()).validate()

    @pytest.mark.parametrize("bad", [
        (0,),            # not positive
        (32, 32),        # not strictly increasing
        (64, 16),        # decreasing
        (16.0,),         # not an int
    ])
    def test_qos_streams_invalid(self, bad):
        with pytest.raises(ConfigError):
            SimConfig(qos_streams=bad).validate()

    def test_device_presets(self):
        assert SSDConfig.preset("tiny") == SSDConfig.tiny()
        assert SSDConfig.preset("bench") == SSDConfig.bench_default()
        assert SSDConfig.preset("table1") == SSDConfig.paper_table1()
        with pytest.raises(ConfigError):
            SSDConfig.preset("huge")


def test_summary_mentions_capacity():
    s = SSDConfig.tiny().summary()
    assert "GiB" in s and "blocks/plane" in s
