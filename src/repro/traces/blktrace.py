"""Linux blktrace/blkparse text output parser.

Parses the default ``blkparse`` text format, keeping the *queue* (Q) or
*issue* (D) events that represent request submission::

    8,0    3     11     0.009507758  697  Q   W 223490 + 8 [kworker/3:1]
    8,0    3     12     0.009510831  697  D   W 223490 + 8 [kworker/3:1]

Columns: dev major,minor / cpu / sequence / time (s) / pid / action /
rwbs / start sector / "+" / sectors / process.  The rwbs flags combine
R/W/D (discard) with modifiers (S sync, M meta, ...); discards map to
TRIM requests.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path

import numpy as np

from ..errors import TraceFormatError
from .model import OP_READ, OP_TRIM, OP_WRITE, Trace, check_row

_EVENT_WHITELIST = ("Q", "D")


def _op_of_rwbs(rwbs: str) -> int | None:
    if "D" in rwbs:  # discard
        return OP_TRIM
    if "W" in rwbs:
        return OP_WRITE
    if "R" in rwbs:
        return OP_READ
    return None


def load_blktrace(
    path: str | Path,
    name: str | None = None,
    *,
    event: str = "Q",
    include_trim: bool = True,
) -> Trace:
    """Parse blkparse text output (optionally .gz) into a :class:`Trace`.

    ``event`` selects which action to keep ("Q" queue events by default;
    "D" for driver-issue events).
    """
    if event not in _EVENT_WHITELIST:
        raise TraceFormatError(f"event must be one of {_EVENT_WHITELIST}")
    path = Path(path)
    opener = (
        (lambda p: io.TextIOWrapper(gzip.open(p, "rb"), encoding="ascii",
                                    errors="replace"))
        if str(path).endswith(".gz")
        else (lambda p: open(p, "r", encoding="ascii", errors="replace"))
    )
    times, ops, offsets, sizes = [], [], [], []
    with opener(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) < 9 or "," not in parts[0]:
                continue  # summary lines, blank lines, CPU totals
            try:
                t_s = float(parts[3])
                action = parts[5]
                rwbs = parts[6]
            except (ValueError, IndexError):
                continue
            if action != event:
                continue
            op = _op_of_rwbs(rwbs)
            if op is None or (op == OP_TRIM and not include_trim):
                continue
            try:
                sector = int(parts[7])
                if parts[8] != "+" or len(parts) < 10:
                    continue  # e.g. flush records without an extent
                nsectors = int(parts[9])
            except (ValueError, IndexError):
                raise TraceFormatError(f"{path}:{lineno}: bad extent") from None
            if nsectors <= 0:
                continue
            t_ms = t_s * 1000.0
            check_row(path, lineno, t_ms, sector, nsectors)
            times.append(t_ms)
            ops.append(op)
            offsets.append(sector)
            sizes.append(nsectors)
    if not times:
        raise TraceFormatError(f"{path}: no usable {event} events")
    t = np.array(times)
    t -= t.min()
    return Trace(
        name or path.stem,
        t,
        np.array(ops, dtype=np.uint8),
        np.array(offsets, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
    )
