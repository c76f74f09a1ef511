"""The in-memory block trace container.

A trace is four parallel numpy arrays — arrival time (ms), operation,
sector offset, sector size — plus a name.  Requests are kept sorted by
arrival time.  Offsets/sizes use 512-byte sectors, the native unit of
the SYSTOR'17 traces the paper replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import TraceFormatError

OP_READ = 0
OP_WRITE = 1
OP_TRIM = 2

#: one past the largest sector address the int64 columns can hold
_SECTOR_LIMIT = 2**63


def check_row(path, lineno: int, time_ms: float, offset: int, size: int) -> None:
    """Validate one parsed row of a trace file before it enters the
    columns, naming it as ``path:lineno``.  Without this a non-finite
    time is accepted silently (an all-NaN time column after rebasing),
    and a bad extent surfaces later with neither file nor line — as a
    bare ``OverflowError`` from the int64 conversion, or from
    :class:`Trace` itself."""
    if not math.isfinite(time_ms):
        raise TraceFormatError(f"{path}:{lineno}: non-finite timestamp")
    if offset < 0:
        raise TraceFormatError(f"{path}:{lineno}: negative offset {offset}")
    if offset + size >= _SECTOR_LIMIT:
        raise TraceFormatError(
            f"{path}:{lineno}: extent [{offset}, {offset + size}) exceeds "
            "the 64-bit sector range"
        )


@dataclass
class Trace:
    """An ordered sequence of block I/O requests."""

    name: str
    times: np.ndarray    # float64, ms, non-decreasing
    ops: np.ndarray      # uint8, OP_READ / OP_WRITE
    offsets: np.ndarray  # int64, sectors
    sizes: np.ndarray    # int64, sectors (positive)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.ops = np.asarray(self.ops, dtype=np.uint8)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        n = len(self.times)
        if not (len(self.ops) == len(self.offsets) == len(self.sizes) == n):
            raise TraceFormatError("trace arrays have mismatched lengths")
        if n:
            if (self.sizes <= 0).any():
                raise TraceFormatError("trace contains non-positive sizes")
            if (self.offsets < 0).any():
                raise TraceFormatError("trace contains negative offsets")
            if not (self.ops <= OP_TRIM).all():
                raise TraceFormatError("trace contains unknown op codes")
            if (np.diff(self.times) < 0).any():
                order = np.argsort(self.times, kind="stable")
                self.times = self.times[order]
                self.ops = self.ops[order]
                self.offsets = self.offsets[order]
                self.sizes = self.sizes[order]

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        """Yield (op, offset, size, time) tuples."""
        return zip(
            self.ops.tolist(),
            self.offsets.tolist(),
            self.sizes.tolist(),
            self.times.tolist(),
        )

    def freeze(self) -> "Trace":
        """Mark the four arrays read-only and return ``self``: a trace
        held in a cache is shared between callers, and an in-place edit
        by one must fail loudly instead of corrupting the others."""
        for arr in (self.times, self.ops, self.offsets, self.sizes):
            arr.setflags(write=False)
        return self

    # ------------------------------------------------------------------
    @property
    def write_ratio(self) -> float:
        return float((self.ops == OP_WRITE).mean()) if len(self) else 0.0

    @property
    def footprint_sectors(self) -> int:
        """Highest sector touched plus one."""
        if not len(self):
            return 0
        return int((self.offsets + self.sizes).max())

    def duration_ms(self) -> float:
        """Wall-clock span of the trace (last minus first arrival)."""
        return float(self.times[-1] - self.times[0]) if len(self) else 0.0

    # ------------------------------------------------------------------
    def clamped_to(self, logical_sectors: int, name: str | None = None) -> "Trace":
        """Fit the trace into a device of ``logical_sectors``: offsets
        wrap modulo the logical space (page-aligned wrap so request
        alignment — and hence across-page behaviour — is preserved),
        and requests longer than the space are dropped."""
        if logical_sectors <= 0:
            raise TraceFormatError("logical_sectors must be positive")
        keep = self.sizes <= logical_sectors
        offsets = self.offsets[keep].copy()
        sizes = self.sizes[keep]
        # wrap at a large page-multiple boundary to preserve alignment
        offsets %= logical_sectors
        over = offsets + sizes > logical_sectors
        offsets[over] = (offsets[over] + sizes[over]) % logical_sectors - sizes[over]
        offsets[over] = np.maximum(offsets[over], 0)
        return Trace(
            name if name is not None else self.name,
            self.times[keep],
            self.ops[keep],
            offsets,
            sizes,
        )

    def head(self, n: int) -> "Trace":
        """First ``n`` requests (workload-size scaling)."""
        return Trace(
            self.name,
            self.times[:n],
            self.ops[:n],
            self.offsets[:n],
            self.sizes[:n],
        )

    def scaled_time(self, factor: float, name: str | None = None) -> "Trace":
        """Stretch (>1) or compress (<1) arrival times — the load knob
        for sensitivity studies."""
        if factor <= 0:
            raise TraceFormatError("time scale factor must be positive")
        return Trace(
            name if name is not None else self.name,
            self.times * factor,
            self.ops,
            self.offsets,
            self.sizes,
        )

    def filtered_ops(self, keep: set[int], name: str | None = None) -> "Trace":
        """Keep only the given op codes (e.g. ``{OP_WRITE}``)."""
        mask = np.isin(self.ops, list(keep))
        return Trace(
            name if name is not None else self.name,
            self.times[mask],
            self.ops[mask],
            self.offsets[mask],
            self.sizes[mask],
        )

    def window(self, t0: float, t1: float, name: str | None = None) -> "Trace":
        """Requests arriving in ``[t0, t1)`` (e.g. one burst period)."""
        mask = (self.times >= t0) & (self.times < t1)
        return Trace(
            name if name is not None else self.name,
            self.times[mask],
            self.ops[mask],
            self.offsets[mask],
            self.sizes[mask],
        )

    @staticmethod
    def interleave(
        traces: list["Trace"],
        name: str = "interleave",
        *,
        partitioned: bool = True,
    ) -> "Trace":
        """Merge traces by arrival time — concurrent tenants sharing one
        device.

        With ``partitioned`` (the default), each tenant's addresses are
        shifted into its own contiguous slice of the logical space (the
        realistic multi-tenant layout); otherwise offsets are kept
        verbatim and tenants collide on the same addresses.
        """
        if not traces:
            return Trace.from_lists(name, [])
        shift = 0
        offsets = []
        for t in traces:
            if partitioned:
                offsets.append(t.offsets + shift)
                shift += t.footprint_sectors
            else:
                offsets.append(t.offsets)
        merged = Trace(
            name,
            np.concatenate([t.times for t in traces]),
            np.concatenate([t.ops for t in traces]),
            np.concatenate(offsets),
            np.concatenate([t.sizes for t in traces]),
        )
        return merged  # __post_init__ sorted it by arrival time

    @staticmethod
    def concat(traces: list["Trace"], name: str = "concat") -> "Trace":
        """Play traces back to back (each shifted past the previous
        one's end) — multi-tenant composition."""
        if not traces:
            return Trace.from_lists(name, [])
        times, ops, offsets, sizes = [], [], [], []
        shift = 0.0
        for t in traces:
            times.append(t.times + shift)
            ops.append(t.ops)
            offsets.append(t.offsets)
            sizes.append(t.sizes)
            if len(t):
                shift = float(times[-1][-1]) + 1.0
        return Trace(
            name,
            np.concatenate(times),
            np.concatenate(ops),
            np.concatenate(offsets),
            np.concatenate(sizes),
        )

    @classmethod
    def from_lists(cls, name: str, requests) -> "Trace":
        """Build from an iterable of (op, offset, size, time) tuples."""
        reqs = list(requests)
        if not reqs:
            return cls(
                name,
                np.empty(0),
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        ops, offsets, sizes, times = zip(
            *((op, off, sz, t) for op, off, sz, t in reqs)
        )
        return cls(
            name,
            np.array(times, dtype=np.float64),
            np.array(ops, dtype=np.uint8),
            np.array(offsets, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
        )
