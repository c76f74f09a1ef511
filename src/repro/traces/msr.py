"""MSR Cambridge trace format.

A second widely-used enterprise format, supported so users can replay
their own workloads::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

``Timestamp`` is in Windows filetime ticks (100 ns), ``Type`` is
``Read``/``Write``, ``Offset``/``Size`` are bytes.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path

import numpy as np

from ..errors import TraceFormatError
from ..units import SECTOR_BYTES
from .model import OP_READ, OP_WRITE, Trace, check_row

_TICKS_PER_MS = 10_000.0


def load_msr(path: str | Path, name: str | None = None) -> Trace:
    """Parse an MSR Cambridge CSV (optionally .gz) into a :class:`Trace`."""
    path = Path(path)
    opener = (
        (lambda p: io.TextIOWrapper(gzip.open(p, "rb"), encoding="ascii"))
        if str(path).endswith(".gz")
        else (lambda p: open(p, "r", encoding="ascii"))
    )
    times, ops, offsets, sizes = [], [], [], []
    with opener(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.lower().startswith("timestamp"):
                continue
            parts = line.split(",")
            if len(parts) < 6:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected >=6 fields, got {len(parts)}"
                )
            ts, _host, _disk, typ, off, size = parts[:6]
            typ = typ.strip().lower()
            if typ not in ("read", "write"):
                continue
            try:
                t = int(ts) / _TICKS_PER_MS
                off_b = int(off)
                size_b = int(size)
            except (ValueError, OverflowError) as exc:
                # OverflowError: a tick count too large for a float
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
            if size_b <= 0:
                continue
            lo = off_b // SECTOR_BYTES
            hi = -(-(off_b + size_b) // SECTOR_BYTES)
            check_row(path, lineno, t, lo, hi - lo)
            times.append(t)
            ops.append(OP_WRITE if typ == "write" else OP_READ)
            offsets.append(lo)
            sizes.append(hi - lo)
    if not times:
        raise TraceFormatError(f"{path}: no usable requests")
    t = np.array(times)
    t -= t.min()
    return Trace(
        name or path.stem,
        t,
        np.array(ops, dtype=np.uint8),
        np.array(offsets, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
    )
