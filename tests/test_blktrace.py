"""blktrace/blkparse text parser."""

import gzip
import re

import pytest

from repro.errors import TraceFormatError
from repro.traces.blktrace import load_blktrace
from repro.traces.model import OP_READ, OP_TRIM, OP_WRITE

SAMPLE = """\
8,0    3       11     0.009507758   697  Q   W 223490 + 8 [kworker]
8,0    3       12     0.009510831   697  D   W 223490 + 8 [kworker]
8,0    1       13     0.010100000   698  Q   R 1024 + 16 [fio]
8,0    1       14     0.010200000   698  Q  RS 2048 + 8 [fio]
8,0    1       15     0.011000000   698  Q   D 4096 + 64 [fstrim]
8,0    1       16     0.012000000   698  C   W 223490 + 8 [0]
CPU3 (8,0):
 Reads Queued:           2,        12KiB
"""


@pytest.fixture
def sample_file(tmp_path):
    p = tmp_path / "trace.txt"
    p.write_text(SAMPLE)
    return p


class TestParse:
    def test_queue_events(self, sample_file):
        t = load_blktrace(sample_file)
        # 4 Q events: W, R, RS, D(iscard)
        assert len(t) == 4
        assert list(t.ops) == [OP_WRITE, OP_READ, OP_READ, OP_TRIM]
        assert t.offsets[0] == 223490 and t.sizes[0] == 8

    def test_issue_events(self, sample_file):
        t = load_blktrace(sample_file, event="D")
        assert len(t) == 1
        assert t.ops[0] == OP_WRITE

    def test_trim_excluded(self, sample_file):
        t = load_blktrace(sample_file, include_trim=False)
        assert len(t) == 3
        assert OP_TRIM not in set(t.ops.tolist())

    def test_times_rebased_ms(self, sample_file):
        t = load_blktrace(sample_file)
        assert t.times[0] == pytest.approx(0.0)
        assert t.times[1] - t.times[0] == pytest.approx(0.5923, abs=1e-3)

    def test_gzip(self, tmp_path):
        p = tmp_path / "trace.txt.gz"
        p.write_bytes(gzip.compress(SAMPLE.encode()))
        assert len(load_blktrace(p)) == 4

    def test_bad_event_choice(self, sample_file):
        with pytest.raises(TraceFormatError):
            load_blktrace(sample_file, event="C")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("CPU0 (8,0):\n")
        with pytest.raises(TraceFormatError):
            load_blktrace(p)

    def test_summary_lines_skipped(self, sample_file):
        # the trailing "Reads Queued" block must not break parsing
        t = load_blktrace(sample_file)
        assert len(t) == 4


class TestMalformedRows:
    """Same contract as the CSV loaders (tests/test_traces_formats.py):
    a bad row is a ``TraceFormatError`` naming ``path:line``."""

    @pytest.mark.parametrize(
        "ts, sector",
        [
            ("0.2", "99999999999999999999999"),
            ("0.2", "-8"),
            ("nan", "64"),
            ("inf", "64"),
            ("9" * 400, "64"),
        ],
        ids=[
            "offset-overflows-int64", "negative-offset", "nan-time",
            "inf-time", "time-overflows-float",
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, ts, sector):
        row = "  8,0    3     {}     {}  697  Q   W {} + 8 [kworker/3:1]"
        p = tmp_path / "bad.txt"
        p.write_text(
            "CPU summary line\n"
            + row.format(1, "0.1", "0") + "\n"
            + row.format(2, ts, sector) + "\n"
        )
        with pytest.raises(TraceFormatError, match=re.escape(f"{p}:3:")):
            load_blktrace(p)
