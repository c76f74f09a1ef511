"""SYSTOR '17 trace format (Lee et al., the paper's LUN collection).

The public collection stores one CSV per LUN with the header::

    Timestamp,Response,IOType,LUN,Offset,Size

``Timestamp``/``Response`` are seconds (float), ``IOType`` is ``R``/
``W`` (the collection also contains rare other codes, skipped here),
``Offset`` and ``Size`` are bytes.  If real trace files are available
they can be loaded with :func:`load_systor` and dropped straight into
the experiment runner in place of the calibrated synthetic workloads.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path

import numpy as np

from ..errors import TraceFormatError
from ..units import SECTOR_BYTES
from .model import OP_READ, OP_TRIM, OP_WRITE, Trace, check_row

_HEADER = "Timestamp,Response,IOType,LUN,Offset,Size"


def _open_text(path: Path):
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "r", encoding="ascii")


def load_systor(
    path: str | Path, name: str | None = None, *, include_trim: bool = False
) -> Trace:
    """Parse a SYSTOR '17 LUN CSV (optionally .gz) into a :class:`Trace`.

    ``include_trim=True`` keeps UNMAP records as TRIM requests instead
    of skipping them.
    """
    path = Path(path)
    times, ops, offsets, sizes = [], [], [], []
    skipped = 0
    with _open_text(path) as fh:
        first = fh.readline().strip()
        if not first:
            raise TraceFormatError(f"{path}: empty trace file")
        first_data_line = 2
        if not first.lower().startswith("timestamp"):
            # no header: treat the first line as data
            fh = _chain_line(first, fh)
            first_data_line = 1
        for lineno, line in enumerate(fh, start=first_data_line):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected 6 fields, got {len(parts)}"
                )
            ts, _resp, iotype, _lun, off, size = parts
            iotype = iotype.strip().upper()
            if iotype in ("R",):
                op = OP_READ
            elif iotype in ("W",):
                op = OP_WRITE
            elif include_trim and iotype in ("U", "UN", "UNMAP", "T", "D"):
                op = OP_TRIM
            else:
                skipped += 1
                continue
            try:
                off_b = int(off)
                size_b = int(size)
                t = float(ts)
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
            if size_b <= 0:
                skipped += 1
                continue
            # byte offsets are not always sector-aligned; round down/up
            # to sector granularity like the device interface would
            lo = off_b // SECTOR_BYTES
            hi = -(-(off_b + size_b) // SECTOR_BYTES)
            t *= 1000.0  # seconds -> ms
            check_row(path, lineno, t, lo, hi - lo)
            times.append(t)
            ops.append(op)
            offsets.append(lo)
            sizes.append(hi - lo)
    if not times:
        raise TraceFormatError(f"{path}: no usable requests (skipped {skipped})")
    t = np.array(times)
    t -= t.min()
    return Trace(
        name or path.stem,
        t,
        np.array(ops, dtype=np.uint8),
        np.array(offsets, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
    )


def _chain_line(first: str, fh):
    yield first + "\n"
    yield from fh


def save_systor(trace: Trace, path: str | Path) -> None:
    """Write a trace in SYSTOR '17 CSV format (inverse of load)."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_HEADER + "\n")
        codes = {OP_READ: "R", OP_WRITE: "W", OP_TRIM: "U"}
        for op, off, size, ts in trace:
            fh.write(
                f"{ts / 1000.0:.6f},0.0,"
                f"{codes[op]},0,"
                f"{off * SECTOR_BYTES},{size * SECTOR_BYTES}\n"
            )
