"""SYSTOR'17 and MSR trace parsers (round trips and error paths)."""

import gzip
import re

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traces.model import OP_READ, OP_WRITE, Trace
from repro.traces.msr import load_msr
from repro.traces.systor import load_systor, save_systor


@pytest.fixture
def sample_trace():
    return Trace(
        "sample",
        np.array([0.0, 10.0, 20.0]),
        np.array([OP_WRITE, OP_READ, OP_WRITE], np.uint8),
        np.array([2056, 0, 128], np.int64),
        np.array([12, 16, 8], np.int64),
    )


class TestSystor:
    def test_roundtrip(self, tmp_path, sample_trace):
        p = tmp_path / "t.csv"
        save_systor(sample_trace, p)
        back = load_systor(p)
        assert len(back) == 3
        assert list(back.ops) == list(sample_trace.ops)
        assert list(back.offsets) == list(sample_trace.offsets)
        assert list(back.sizes) == list(sample_trace.sizes)
        assert back.times[1] - back.times[0] == pytest.approx(10.0)

    def test_gzip_supported(self, tmp_path, sample_trace):
        plain = tmp_path / "t.csv"
        save_systor(sample_trace, plain)
        gz = tmp_path / "t.csv.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        back = load_systor(gz)
        assert len(back) == 3

    def test_skips_non_rw(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "Timestamp,Response,IOType,LUN,Offset,Size\n"
            "0.0,0.0,W,0,0,4096\n"
            "0.1,0.0,U,0,4096,4096\n"  # unmap: skipped
            "0.2,0.0,R,0,0,4096\n"
        )
        t = load_systor(p)
        assert len(t) == 2

    def test_headerless(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.0,0.0,W,0,0,4096\n")
        t = load_systor(p)
        assert len(t) == 1
        assert t.sizes[0] == 8

    def test_unaligned_bytes_rounded_to_sectors(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "Timestamp,Response,IOType,LUN,Offset,Size\n0.0,0.0,W,0,100,1000\n"
        )
        t = load_systor(p)
        # offset 100 -> sector 0; end 1100 -> sector 3 (ceil)
        assert t.offsets[0] == 0 and t.sizes[0] == 3

    def test_malformed_field_count(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("Timestamp,Response,IOType,LUN,Offset,Size\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            load_systor(p)

    def test_bad_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "Timestamp,Response,IOType,LUN,Offset,Size\nxx,0.0,W,0,0,4096\n"
        )
        with pytest.raises(TraceFormatError):
            load_systor(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(TraceFormatError):
            load_systor(p)

    def test_no_usable_requests(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("Timestamp,Response,IOType,LUN,Offset,Size\n")
        with pytest.raises(TraceFormatError):
            load_systor(p)


class TestMSR:
    def test_parse(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "128166372003061629,host,0,Write,4096,8192,100\n"
            "128166372013061629,host,0,Read,0,4096,50\n"
        )
        t = load_msr(p)
        assert len(t) == 2
        assert t.ops[0] == OP_WRITE
        assert t.offsets[0] == 8 and t.sizes[0] == 16
        assert t.times[1] - t.times[0] == pytest.approx(1000.0)

    def test_skips_header_and_unknown(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"
            "1,h,0,Write,0,512,1\n"
            "2,h,0,Flush,0,512,1\n"
        )
        t = load_msr(p)
        assert len(t) == 1

    def test_too_few_fields(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,h,0,Write\n")
        with pytest.raises(TraceFormatError):
            load_msr(p)

    def test_empty(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(TraceFormatError):
            load_msr(p)


#: one malformed value per defect: (timestamp, byte offset) overrides
BAD_ROWS = {
    "offset-overflows-int64": (None, "99999999999999999999999"),
    "negative-offset": (None, "-4096"),
    "nan-time": ("nan", None),
    "inf-time": ("inf", None),
    "time-overflows-float": ("9" * 400, None),
}


def _systor_rows(ts, off):
    row = "{},0.0,W,0,{},4096"
    return [
        "Timestamp,Response,IOType,LUN,Offset,Size",
        row.format("0.5", "0"),
        row.format(ts or "0.6", off or "8192"),
    ]


def _msr_rows(ts, off):
    row = "{},h,0,Write,{},4096,1"
    return [
        "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
        row.format("128166372003061629", "0"),
        row.format(ts or "128166372003071629", off or "8192"),
    ]


class TestMalformedRows:
    """A bad row fails as ``TraceFormatError`` naming ``path:line`` —
    never a bare ``OverflowError`` from the int64 conversion, a
    location-less error from ``Trace``, or an accepted NaN time."""

    @pytest.mark.parametrize("defect", BAD_ROWS)
    @pytest.mark.parametrize(
        "load, rows", [(load_systor, _systor_rows), (load_msr, _msr_rows)],
        ids=["systor", "msr"],
    )
    def test_bad_row_names_its_line(self, tmp_path, load, rows, defect):
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(rows(*BAD_ROWS[defect])) + "\n")
        with pytest.raises(TraceFormatError, match=re.escape(f"{p}:3:")):
            load(p)

    def test_headerless_systor_counts_from_line_one(self, tmp_path):
        p = tmp_path / "bare.csv"
        p.write_text("0.5,0.0,W,0,0,4096\n0.6,0.0,W,0,xx,4096\n")
        with pytest.raises(TraceFormatError, match=re.escape(f"{p}:2:")):
            load_systor(p)
