"""Trace linting (repro.traces.lint)."""

import numpy as np

from repro.traces.lint import Finding, has_errors, lint_trace
from repro.traces.model import OP_READ, OP_TRIM, OP_WRITE, Trace


def make(times, ops, offsets, sizes):
    return Trace(
        "t",
        np.array(times, float),
        np.array(ops, np.uint8),
        np.array(offsets, np.int64),
        np.array(sizes, np.int64),
    )


def codes(findings):
    return {f.code for f in findings}


class TestHardProblems:
    def test_empty_trace(self):
        t = Trace.from_lists("e", [])
        fs = lint_trace(t)
        assert codes(fs) == {"empty"}
        assert has_errors(fs)

    def test_out_of_range(self):
        t = make([0.0], [OP_WRITE], [1000], [100])
        fs = lint_trace(t, logical_sectors=512)
        assert "out-of-range" in codes(fs)
        assert has_errors(fs)

    def test_in_range_clean(self):
        t = make([0.0, 1.0], [OP_WRITE, OP_READ], [0, 16], [16, 16])
        fs = lint_trace(t, logical_sectors=512)
        assert not has_errors(fs)

    def test_huge_requests(self):
        t = make([0.0], [OP_WRITE], [0], [20_000])
        assert "huge-requests" in codes(lint_trace(t))

    def test_out_of_range_names_the_first_offender_and_the_count(self):
        t = make([0.0, 1.0, 2.0, 3.0], [OP_WRITE] * 4,
                 [0, 16, 500, 1000], [16, 16, 16, 100])
        (f,) = [f for f in lint_trace(t, logical_sectors=512)
                if f.code == "out-of-range"]
        assert "2 requests (50.0%)" in f.message
        assert "first at request 2" in f.message

    def test_huge_requests_names_the_first_offender_and_the_count(self):
        t = make([0.0, 1.0, 2.0], [OP_WRITE] * 3, [0, 0, 0], [8, 20_000, 9_000])
        (f,) = [f for f in lint_trace(t) if f.code == "huge-requests"]
        assert f.message.startswith("2 requests exceed 4 MiB")
        assert "first at request 1" in f.message


class TestTimeAxis:
    def test_time_offset_reported(self):
        t = make([500.0, 501.0], [OP_WRITE, OP_WRITE], [0, 16], [8, 8])
        assert "time-offset" in codes(lint_trace(t))

    def test_coarse_timestamps(self):
        t = make([0.0] * 10, [OP_WRITE] * 10, list(range(0, 160, 16)),
                 [8] * 10)
        assert "timestamp-resolution" in codes(lint_trace(t))

    def test_absurd_rate(self):
        t = make(np.linspace(0, 0.05, 50), [OP_WRITE] * 50,
                 list(range(0, 800, 16)), [8] * 50)
        assert "arrival-rate" in codes(lint_trace(t))


class TestComposition:
    def test_read_only(self):
        t = make([0.0, 1.0], [OP_READ, OP_READ], [0, 16], [8, 8])
        assert "read-only" in codes(lint_trace(t))

    def test_trims_noted(self):
        t = make([0.0, 1.0], [OP_WRITE, OP_TRIM], [0, 0], [16, 16])
        assert "has-trims" in codes(lint_trace(t))

    def test_fully_aligned(self):
        t = make([0.0, 1.0], [OP_WRITE, OP_WRITE], [0, 16], [16, 16])
        assert "fully-aligned" in codes(lint_trace(t))

    def test_across_ratio_always_reported(self):
        t = make([0.0], [OP_WRITE], [8], [16])
        fs = lint_trace(t)
        ratio = next(f for f in fs if f.code == "across-ratio")
        assert "100.0%" in ratio.message

    def test_severity_ordering(self):
        t = make([500.0], [OP_WRITE], [1000], [100])
        fs = lint_trace(t, logical_sectors=512)
        sevs = [f.severity for f in fs]
        assert sevs == sorted(
            sevs, key=lambda s: ("error", "warning", "info").index(s)
        )

    def test_finding_str(self):
        f = Finding("error", "x", "boom")
        assert "ERROR" in str(f) and "boom" in str(f)
