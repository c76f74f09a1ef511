"""Per-chip NAND command schedulers.

Behind the hazard-checking frontend (:mod:`repro.sim.frontend`) every
NAND-bound request is assigned to the command queue of the chip it is
*predicted* to touch first.  Each chip releases one request into
service at a time and, when ``read_priority`` is on, pulls the oldest
queued *read* ahead of queued writes — reads are latency-critical while
a TLC program is 26x longer, the classic read-priority scheduling
argument (LFTL, arXiv 1302.5502 §4).

The chip prediction is a scheduling heuristic, not ground truth: the
FTL's write allocator picks the actual plane at service time, and a
multi-page request spans several chips.  Mispredicted requests still
time correctly — chip contention is resolved by the
:class:`~repro.flash.timing.ChipTimeline` busy accounting when the
request is serviced — the prediction only shapes *issue order*.  That
is exactly the split a real controller has: its scheduler works from
the queue contents it can see, the flash bus arbitrates the rest.
"""

from __future__ import annotations

from typing import Callable

from ..traces.model import OP_READ


class NandScheduler:
    """``num_chips`` command queues, each with one command in service.

    ``issue(req, now)`` is the engine callback that releases a request
    to the FTL (the engine queues it to issue at ``now``).
    """

    def __init__(
        self,
        num_chips: int,
        *,
        read_priority: bool = True,
        issue: Callable[..., None],
    ):
        if num_chips <= 0:
            raise ValueError("num_chips must be positive")
        self.num_chips = num_chips
        self.read_priority = read_priority
        self._issue = issue
        #: queued (not yet in-service) requests per chip, FIFO order
        self._queues: list[list] = [[] for _ in range(num_chips)]
        #: whether each chip has a released request in service
        self._busy = [False] * num_chips
        #: requests a chip released ahead of an older queued request
        self.reordered = 0

    # ------------------------------------------------------------------
    def submit(self, req, now: float) -> None:
        """Queue ``req`` on its predicted chip; release it immediately
        when the chip is idle."""
        chip = req.chip
        if self._busy[chip]:
            self._queues[chip].append(req)
        else:
            self._busy[chip] = True
            self._issue(req, now)

    def on_complete(self, req, now: float) -> None:
        """A released request completed: release the chip's next queued
        command, reads first, or mark the chip idle."""
        chip = req.chip
        if chip < 0:
            return  # cache-hit read or TRIM: never entered a chip queue
        queue = self._queues[chip]
        if not queue:
            self._busy[chip] = False
            return
        pick = 0
        if self.read_priority and queue[0].op != OP_READ:
            for i in range(1, len(queue)):
                if queue[i].op == OP_READ:
                    pick = i
                    self.reordered += 1
                    break
        self._issue(queue.pop(pick), now)

    def queued(self) -> int:
        """Total requests sitting in chip queues (diagnostics)."""
        return sum(len(q) for q in self._queues)
