"""Trace sanity linting.

Real trace files come with warts — clock regressions, zero-size or
monster requests, offsets beyond any plausible device, suspicious
alignment patterns.  :func:`lint_trace` inspects a trace and returns a
structured report so problems surface *before* a multi-minute
simulation, and ``python -m repro lint`` prints it.

Findings carry a severity: ``error`` (the simulator will reject or
silently distort these), ``warning`` (legal but probably not what you
meant), ``info`` (characterisation worth knowing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import KIB, SECTOR_BYTES, sectors_per_page
from .model import OP_READ, OP_TRIM, Trace

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One lint result."""

    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.upper():7s}] {self.code}: {self.message}"


def lint_trace(
    trace: Trace,
    *,
    logical_sectors: int | None = None,
    page_size_bytes: int = 8 * KIB,
) -> list[Finding]:
    """Inspect a trace; returns findings ordered most severe first."""
    findings: list[Finding] = []
    n = len(trace)
    if n == 0:
        return [Finding("error", "empty", "trace has no requests")]

    add = findings.append

    # --- hard problems ---------------------------------------------------
    if logical_sectors is not None:
        over = trace.offsets + trace.sizes > logical_sectors
        if over.any():
            add(
                Finding(
                    "error",
                    "out-of-range",
                    f"{int(over.sum())} requests ({over.mean():.1%}) end "
                    f"beyond the device's {logical_sectors} sectors, the "
                    f"first at request {int(over.argmax())} — "
                    "clamp with Trace.clamped_to() before simulating",
                )
            )
    huge = trace.sizes > 64 * KIB // SECTOR_BYTES * 64  # > 4 MiB
    if huge.any():
        add(
            Finding(
                "warning",
                "huge-requests",
                f"{int(huge.sum())} requests exceed 4 MiB (max "
                f"{int(trace.sizes.max()) * SECTOR_BYTES // KIB} KiB), the "
                f"first at request {int(huge.argmax())} — "
                "real block layers split these",
            )
        )

    # --- time axis --------------------------------------------------------
    if float(trace.times[0]) != 0.0:
        add(
            Finding(
                "info",
                "time-offset",
                f"first arrival at {trace.times[0]:.1f} ms (not rebased)",
            )
        )
    gaps = np.diff(trace.times)
    if n > 1 and (gaps == 0).mean() > 0.5:
        add(
            Finding(
                "warning",
                "timestamp-resolution",
                f"{(gaps == 0).mean():.0%} of consecutive requests share a "
                "timestamp — the source clock is coarser than the request "
                "rate, so queueing results will be pessimistic",
            )
        )
    span = trace.duration_ms()
    if span > 0 and n / span > 100:  # >100 requests per ms
        add(
            Finding(
                "warning",
                "arrival-rate",
                f"mean arrival rate {n / span:.0f} req/ms will saturate any "
                "simulated device; check the timestamp unit",
            )
        )

    # --- composition --------------------------------------------------------
    ops = set(np.unique(trace.ops).tolist())
    if ops == {OP_READ}:
        add(Finding("warning", "read-only",
                    "no writes: FTL comparisons will be trivial"))
    if OP_TRIM in ops:
        trims = int((trace.ops == OP_TRIM).sum())
        add(Finding("info", "has-trims", f"{trims} TRIM requests present"))

    spp = sectors_per_page(page_size_bytes)
    aligned = (trace.offsets % spp == 0) & ((trace.offsets + trace.sizes) % spp == 0)
    if aligned.all():
        add(
            Finding(
                "info",
                "fully-aligned",
                f"every request is {page_size_bytes // KIB} KiB-aligned: "
                "across-page re-alignment cannot help this workload",
            )
        )
    first = trace.offsets // spp
    last = (trace.offsets + trace.sizes - 1) // spp
    across = (trace.sizes <= spp) & (last - first == 1)
    add(
        Finding(
            "info",
            "across-ratio",
            f"{across.mean():.1%} across-page at {page_size_bytes // KIB} KiB "
            "pages",
        )
    )

    order = {s: i for i, s in enumerate(SEVERITIES)}
    findings.sort(key=lambda f: order[f.severity])
    return findings


def has_errors(findings: list[Finding]) -> bool:
    """True when any finding is severity ``error``."""
    return any(f.severity == "error" for f in findings)
