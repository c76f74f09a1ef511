"""Columnar trace decoding: scalar/batched equivalence properties.

The replay loop's decode stage (:mod:`repro.traces.columnar`) must
describe *exactly* the request stream the scalar reader yields — for
synthetic, blktrace and MSR traces alike, TRIM rows and truncated tail
segments included.  These properties pin that equivalence; the
kernel-off reference tests (``tests/test_batch.py``) pin the rest of
the pipeline downstream of it.
"""

import numpy as np
import pytest

from repro.traces.blktrace import load_blktrace
from repro.traces.columnar import (
    decode_segments,
    request_digest,
    request_digest_scalar,
)
from repro.traces.model import OP_READ, OP_TRIM, OP_WRITE, Trace
from repro.traces.msr import load_msr
from repro.traces.synthetic import SyntheticSpec, VDIWorkloadGenerator

BLKTRACE_SAMPLE = """\
8,0    3       11     0.009507758   697  Q   W 223490 + 8 [kworker]
8,0    1       13     0.010100000   698  Q   R 1024 + 16 [fio]
8,0    1       14     0.010200000   698  Q  RS 2048 + 8 [fio]
8,0    1       15     0.011000000   698  Q   D 4096 + 64 [fstrim]
8,0    1       16     0.012000000   698  Q   R 8191 + 3 [fio]
CPU3 (8,0):
 Reads Queued:           2,        12KiB
"""

MSR_SAMPLE = """\
128166372003061629,usr,0,Read,0,8192,0
128166372016863437,usr,0,Write,12288,4096,0
128166372026462469,usr,0,Read,4608,1024,0
128166372033568563,usr,0,Write,65536,16384,0
128166372043652106,usr,0,Read,65536,512,0
"""


def synthetic_trace(n=300, seed=11):
    spec = SyntheticSpec(
        name="col-prop",
        requests=n,
        write_ratio=0.5,
        across_ratio=0.2,
        mean_write_kb=8.0,
        footprint_sectors=16 * 4096,
        seed=seed,
        small_unaligned=0.4,
    )
    return VDIWorkloadGenerator(spec).generate()


def with_trims(trace, every=7):
    """Flip every ``every``-th write to a TRIM (same extents)."""
    ops = trace.ops.copy()
    writes = np.nonzero(ops == OP_WRITE)[0]
    ops[writes[::every]] = OP_TRIM
    return Trace(trace.name, trace.times, ops, trace.offsets, trace.sizes)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """One trace per source format, TRIM rows included where the
    format carries them."""
    d = tmp_path_factory.mktemp("columnar")
    blk = d / "trace.txt"
    blk.write_text(BLKTRACE_SAMPLE)
    msr = d / "trace.csv"
    msr.write_text(MSR_SAMPLE)
    return {
        "synthetic": with_trims(synthetic_trace()),
        "blktrace": load_blktrace(blk),
        "msr": load_msr(msr),
    }


FORMATS = ("synthetic", "blktrace", "msr")


class TestDecodeSegments:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("max_batch", (1, 7, 512))
    def test_tuples_match_scalar_reader(self, traces, fmt, max_batch):
        trace = traces[fmt]
        scalar = [(op, off, sz, t) for op, off, sz, t in trace]
        cols = []
        for seg in decode_segments(trace, max_batch=max_batch, spp=16):
            cols.extend(seg.request_tuples())
        assert cols == scalar

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_segment_bounds_cover_trace(self, traces, fmt):
        trace = traces[fmt]
        # 7 never divides these lengths: the tail segment is shorter
        segs = list(decode_segments(trace, max_batch=7, spp=16))
        assert [s.start for s in segs] == list(range(0, len(trace), 7))
        assert sum(len(s) for s in segs) == len(trace)
        assert len(segs[-1]) == len(trace) - segs[-1].start <= 7

    def test_trim_rows_survive_decode(self, traces):
        for fmt in ("synthetic", "blktrace"):
            trace = traces[fmt]
            assert (trace.ops == OP_TRIM).any()  # fixture sanity
            decoded_ops = np.concatenate([
                s.ops for s in decode_segments(trace, max_batch=7, spp=16)
            ])
            np.testing.assert_array_equal(decoded_ops, trace.ops)

    def test_derived_geometry_matches_per_request_math(self, traces):
        spp = 16
        trace = traces["synthetic"]
        for seg in decode_segments(trace, max_batch=64, spp=spp):
            for k, (op, off, sz, t) in enumerate(seg.request_tuples()):
                lo = off // spp
                hi = (off + sz - 1) // spp
                assert seg.lpn_lo[k] == lo
                assert seg.lpn_hi[k] == hi
                assert seg.pieces[k] == hi - lo + 1
                # paper §2.1: at most one page of data spanning a
                # page boundary
                assert seg.across[k] == (sz <= spp and hi == lo + 1)

    def test_rejects_bad_arguments(self, traces):
        trace = traces["blktrace"]
        with pytest.raises(ValueError):
            list(decode_segments(trace, max_batch=0, spp=16))
        with pytest.raises(ValueError):
            list(decode_segments(trace, max_batch=512, spp=0))


class TestRequestDigest:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("max_batch", (1, 7, 512))
    def test_columnar_digest_equals_scalar(self, traces, fmt, max_batch):
        trace = traces[fmt]
        assert (
            request_digest(trace, max_batch=max_batch)
            == request_digest_scalar(trace)
        )

    def test_digest_invariant_to_batch_size(self, traces):
        trace = traces["synthetic"]
        digests = {
            request_digest(trace, max_batch=mb) for mb in (1, 3, 100, 4096)
        }
        assert len(digests) == 1

    def test_digest_sensitive_to_any_column(self, traces):
        base = traces["msr"]
        ref = request_digest(base)
        mutants = [
            Trace(base.name, base.times + 1.0, base.ops, base.offsets,
                  base.sizes),
            Trace(base.name, base.times, base.ops, base.offsets + 1,
                  base.sizes),
            Trace(base.name, base.times, base.ops, base.offsets,
                  base.sizes + 1),
        ]
        flipped = base.ops.copy()
        flipped[0] = OP_WRITE if flipped[0] == OP_READ else OP_READ
        mutants.append(
            Trace(base.name, base.times, flipped, base.offsets, base.sizes)
        )
        for m in mutants:
            assert request_digest(m) != ref

    def test_pinned_canonical_encoding(self):
        """The canonical row encoding (op u8, offset i64, size i64,
        time f64, little-endian) is part of the equivalence contract —
        a layout change must fail loudly, not re-baseline silently."""
        trace = Trace(
            "pinned",
            np.array([0.0, 1.5, 2.25]),
            np.array([OP_WRITE, OP_READ, OP_TRIM], np.uint8),
            np.array([0, 16, 32], np.int64),
            np.array([16, 8, 64], np.int64),
        )
        want = (
            "02f201b808727ea1c066f1d4c625be26"
            "4a5433012278e10cae8682b445fb2ae0"
        )
        assert request_digest(trace) == want
        assert request_digest_scalar(trace) == want
