"""Columnar trace decoding in bounded segments.

A :class:`ColumnarSegment` is a slice of the trace carrying the four
raw request columns plus derived per-request geometry (first/last
logical page, page-piece count, the across-page classification of
paper §2.1).  No replay loop uses it: both slice the raw columns
themselves.  Its remaining users are the frozen ``benchmarks/e2e``
decode probe (``traces.decode_s``) and ``tests/test_columnar.py``.

Decoding is *pure*: a segment is views/arithmetic over the trace's own
arrays, so the request stream it describes is byte-identical to what
the scalar reader (``for op, offset, size, t in trace``) yields.
:func:`request_digest` / :func:`request_digest_scalar` pin that: the
same SHA-256 over the canonical request encoding — one from the
columnar arrays, one through the scalar tuple iterator — and the
property tests require equal hexes on synthetic, blktrace and MSR
traces (TRIM rows and truncated-tail segments included).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import Trace

#: canonical per-request encoding (little-endian, no padding):
#: op uint8, offset int64, size int64, arrival-time float64
_ROW_STRUCT = struct.Struct("<Bqqd")

#: numpy dtype mirroring :data:`_ROW_STRUCT` field for field
_ROW_DTYPE = np.dtype(
    [("op", "<u1"), ("offset", "<i8"), ("size", "<i8"), ("time", "<f8")]
)


@dataclass(frozen=True)
class ColumnarSegment:
    """One decoded trace segment (a bounded run of requests).

    The four raw columns are slices of the trace arrays; the derived
    columns describe each request's page geometry:

    ``lpn_lo``/``lpn_hi``
        first and last logical page the extent touches;
    ``pieces``
        how many page-level sub-requests the extent splits into
        (``lpn_hi - lpn_lo + 1``);
    ``across``
        the paper's across-page classification (at most one page of
        data, spanning a page boundary) — matching the engine's
        inlined ``is_across_page`` exactly.
    """

    #: index of the segment's first request within the whole trace
    start: int
    times: np.ndarray
    ops: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    lpn_lo: np.ndarray
    lpn_hi: np.ndarray
    pieces: np.ndarray
    across: np.ndarray

    def __len__(self) -> int:
        return len(self.ops)

    def request_tuples(self):
        """The segment's requests as scalar ``(op, offset, size, time)``
        tuples — the same stream the scalar reader yields for this
        slice."""
        return list(
            zip(
                self.ops.tolist(),
                self.offsets.tolist(),
                self.sizes.tolist(),
                self.times.tolist(),
            )
        )


def decode_segments(
    trace: Trace, *, max_batch: int = 512, spp: int
) -> Iterator[ColumnarSegment]:
    """Decode ``trace`` into :class:`ColumnarSegment` runs of at most
    ``max_batch`` requests (the tail segment is simply shorter).

    ``spp`` (sectors per page) drives the derived geometry columns.
    The derived values are computed vectorised per segment, not per
    request — this is the "decode" stage of the replay pipeline.
    """
    if max_batch <= 0:
        raise ValueError(f"max_batch must be positive, got {max_batch}")
    if spp <= 0:
        raise ValueError(f"spp must be positive, got {spp}")
    n = len(trace)
    for lo in range(0, n, max_batch):
        hi = min(lo + max_batch, n)
        offsets = trace.offsets[lo:hi]
        sizes = trace.sizes[lo:hi]
        lpn_lo = offsets // spp
        lpn_hi = (offsets + sizes - 1) // spp
        yield ColumnarSegment(
            start=lo,
            times=trace.times[lo:hi],
            ops=trace.ops[lo:hi],
            offsets=offsets,
            sizes=sizes,
            lpn_lo=lpn_lo,
            lpn_hi=lpn_hi,
            pieces=lpn_hi - lpn_lo + 1,
            across=(sizes <= spp) & (lpn_hi == lpn_lo + 1),
        )


# ----------------------------------------------------------------------
# digest equivalence: columnar vs. scalar request streams
# ----------------------------------------------------------------------
def request_digest(trace: Trace, *, max_batch: int = 512, spp: int = 16) -> str:
    """SHA-256 over the canonical request stream, computed from the
    *columnar* decode: each segment's rows are packed into the
    :data:`_ROW_DTYPE` record array and hashed as raw bytes."""
    h = hashlib.sha256()
    for seg in decode_segments(trace, max_batch=max_batch, spp=spp):
        rows = np.empty(len(seg), dtype=_ROW_DTYPE)
        rows["op"] = seg.ops
        rows["offset"] = seg.offsets
        rows["size"] = seg.sizes
        rows["time"] = seg.times
        h.update(rows.tobytes())
    return h.hexdigest()


def request_digest_scalar(trace: Trace) -> str:
    """SHA-256 over the canonical request stream, computed through the
    scalar reader (``Trace.__iter__``) one :data:`_ROW_STRUCT` pack at
    a time — the reference :func:`request_digest` must match."""
    h = hashlib.sha256()
    pack = _ROW_STRUCT.pack
    for op, offset, size, t in trace:
        h.update(pack(op, offset, size, t))
    return h.hexdigest()
