"""Per-chip operation timelines.

A chip services one flash operation at a time; operations on different
chips overlap freely.  This is the contention model that turns flash-op
counts into request response times: a sub-request issued at ``now``
against a busy chip waits until the chip frees up (paper §2.1 — a
request completes only when all its page-level sub-requests do).

Erase operations issued by GC occupy the chip the same way, which is
how GC pressure surfaces as long-tail latency.

Like :class:`~repro.flash.array.FlashArray`, the per-chip tables are
raw :class:`array.array` buffers for fast scalar access on the per-op
hot path, with the public numpy attributes (``busy_until``,
``busy_time``, ``op_count``, ``bus_busy_until``) exposed as zero-copy
views over the same memory for vectorised consumers (utilisation
sampling, idle-chip assertions in tests).  The latency scalars from
:class:`~repro.config.TimingConfig` (a frozen dataclass) are bound to
locals at construction so the per-op cost is one array load instead of
repeated attribute chasing.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..config import TimingConfig
from ..errors import SimulationError


class ChipTimeline:
    """Busy-until tracking for every chip (and, optionally, every
    channel bus) in the device.

    With ``timing.transfer_ms == 0`` (the default) a chip is the only
    contended resource.  With a non-zero transfer time, page data also
    occupies the chip's channel bus: programs transfer in before the
    cell operation, reads transfer out after it, and transfers of chips
    sharing a channel serialise against each other.
    """

    def __init__(
        self,
        num_chips: int,
        timing: TimingConfig,
        chips_per_channel: int | None = None,
    ):
        if num_chips <= 0:
            raise SimulationError("need at least one chip")
        self.timing = timing
        # TimingConfig is frozen — memoize the per-op latency scalars
        self._read_ms = timing.read_ms
        self._program_ms = timing.program_ms
        self._erase_ms = timing.erase_ms
        self._read_retry_ms = timing.read_retry_ms
        self._transfer_ms = timing.transfer_ms
        # raw buffers (scalar hot path) + zero-copy numpy views (public)
        self._busy_until = array("d", bytes(8 * num_chips))
        self._busy_time = array("d", bytes(8 * num_chips))
        self._op_count = array("q", bytes(8 * num_chips))
        self.busy_until = np.frombuffer(self._busy_until, dtype=np.float64)
        #: cumulative busy time per chip (utilisation accounting)
        self.busy_time = np.frombuffer(self._busy_time, dtype=np.float64)
        self.op_count = np.frombuffer(self._op_count, dtype=np.int64)
        #: chips sharing one channel bus (None = one chip per channel)
        self.chips_per_channel = chips_per_channel or 1
        n_channels = -(-num_chips // self.chips_per_channel)
        self._bus_busy_until = array("d", bytes(8 * n_channels))
        self.bus_busy_until = np.frombuffer(
            self._bus_busy_until, dtype=np.float64
        )

    def _occupy(self, chip: int, now: float, duration: float) -> float:
        bu = self._busy_until
        start = bu[chip]
        if now > start:
            start = now
        finish = start + duration
        bu[chip] = finish
        self._busy_time[chip] += duration
        self._op_count[chip] += 1
        return finish

    def read(self, chip: int, now: float) -> float:
        """Schedule a page read; returns its completion time."""
        tr = self._transfer_ms
        if tr <= 0:
            return self._occupy(chip, now, self._read_ms)
        # cell read, then the data transfers out over the channel
        cell_done = self._occupy(chip, now, self._read_ms)
        ch = chip // self.chips_per_channel
        t0 = self._bus_busy_until[ch]
        if cell_done > t0:
            t0 = cell_done
        finish = t0 + tr
        self._bus_busy_until[ch] = finish
        if finish > self._busy_until[chip]:
            self._busy_until[chip] = finish
        return finish

    def program(self, chip: int, now: float) -> float:
        """Schedule a page program; returns its completion time."""
        tr = self._transfer_ms
        if tr <= 0:
            return self._occupy(chip, now, self._program_ms)
        # the data transfers in over the channel, then the cell programs
        ch = chip // self.chips_per_channel
        start = now
        if self._busy_until[chip] > start:
            start = self._busy_until[chip]
        if self._bus_busy_until[ch] > start:
            start = self._bus_busy_until[ch]
        self._bus_busy_until[ch] = start + tr
        finish = start + tr + self._program_ms
        self._busy_until[chip] = finish
        self._busy_time[chip] += tr + self._program_ms
        self._op_count[chip] += 1
        return finish

    def read_retries(self, chip: int, now: float, steps: int) -> float:
        """Charge ``steps`` escalating read-retry re-reads after a read
        whose raw errors exceeded the ECC budget (:mod:`repro.faults`).

        Step ``k`` (1-based) occupies the chip for
        ``read_retry_ms * k`` — deeper entries of a real NAND retry
        table use slower sensing — so the total penalty is
        ``read_retry_ms * steps * (steps + 1) / 2``.
        """
        if steps <= 0:
            return self.next_free(chip, now)
        penalty = self._read_retry_ms * steps * (steps + 1) / 2.0
        return self._occupy(chip, now, penalty)

    def reprogram(self, chip: int, now: float, attempts: int) -> float:
        """Charge ``attempts - 1`` extra in-place program pulses after
        program-status failures (:mod:`repro.faults`)."""
        if attempts <= 1:
            return self.next_free(chip, now)
        return self._occupy(chip, now, self._program_ms * (attempts - 1))

    def erase(self, chip: int, now: float) -> float:
        """Schedule a block erase; returns its completion time."""
        return self._occupy(chip, now, self._erase_ms)

    def next_free(self, chip: int, now: float) -> float:
        """Earliest time the chip could start a new operation."""
        busy = self._busy_until[chip]
        return busy if busy > now else now

    def program_start(self, chip: int, now: float) -> float:
        """When a program issued at ``now`` would start occupying
        resources — the channel bus too when transfers are modelled
        (programs transfer data in before the cell operation)."""
        t = self._busy_until[chip]
        if now > t:
            t = now
        if self._transfer_ms > 0:
            b = self._bus_busy_until[chip // self.chips_per_channel]
            if b > t:
                t = b
        return t

    def state(self) -> dict:
        """Copies of the per-chip and per-channel tables (the
        device-state seam, docs/architecture.md)."""
        return {
            "busy_until": self.busy_until.copy(),
            "busy_time": self.busy_time.copy(),
            "op_count": self.op_count.copy(),
            "bus_busy_until": self.bus_busy_until.copy(),
        }

    def load_state(self, s: dict) -> None:
        """Overwrite the tables with a :meth:`state` snapshot, in place."""
        self.busy_until[:] = s["busy_until"]
        self.busy_time[:] = s["busy_time"]
        self.op_count[:] = s["op_count"]
        self.bus_busy_until[:] = s["bus_busy_until"]

    def utilization(self, horizon_ms: float) -> np.ndarray:
        """Per-chip busy fraction over ``[0, horizon_ms]``."""
        if horizon_ms <= 0:
            return np.zeros_like(self.busy_time)
        return np.minimum(self.busy_time / horizon_ms, 1.0)
