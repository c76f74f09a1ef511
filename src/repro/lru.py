"""A thread-safe LRU map bounded by summed value sizes, and optionally
by entry count.

The repo's three in-process tiers sit on it: aged-device images
(:class:`repro.sim.image.ImageCache`), decoded stored reports
(:class:`repro.experiments.parallel.ResultStore`) and composed fleet
plans (:class:`repro.fleet.workload.PlanCache`).  The caller sizes
each value when it puts it, so the bound means whatever that tier
measures: array bytes for an image, file bytes for a report, trace
requests for a plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["ByteLRU"]


class ByteLRU:
    """Values by key, evicting least-recently-used entries once their
    summed sizes pass ``max_bytes`` or, when ``max_entries`` is given,
    once there are more of them.  A value larger than ``max_bytes`` is
    never kept.  One lock guards the bookkeeping; the values themselves
    are handed out as they are, so a caller that may mutate one copies
    it."""

    def __init__(self, max_bytes: int, max_entries: int | None = None):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: key -> (value, size), least recently used first
        self._items: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key``, now the most recently used, or None."""
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return None
            self._items.move_to_end(key)
            return item[0]

    def put(self, key: Hashable, value: Any, size: int) -> None:
        """Hold ``value`` under ``key`` in place of any older value, then
        evict from the least recently used end down to the bounds."""
        with self._lock:
            self._drop(key)
            if size > self.max_bytes:
                return
            self._items[key] = (value, size)
            self._bytes += size
            entries = self.max_entries
            while self._bytes > self.max_bytes or (
                entries is not None and len(self._items) > entries
            ):
                _, (_, evicted) = self._items.popitem(last=False)
                self._bytes -= evicted

    def discard(self, key: Hashable) -> None:
        """Forget ``key`` if it is held."""
        with self._lock:
            self._drop(key)

    def _drop(self, key: Hashable) -> None:
        item = self._items.pop(key, None)
        if item is not None:
            self._bytes -= item[1]

    def clear(self) -> None:
        """Forget every entry."""
        with self._lock:
            self._items.clear()
            self._bytes = 0

    def stats(self) -> dict[str, int]:
        """Thread-safe snapshot: entries held and their summed sizes."""
        with self._lock:
            return {"entries": len(self._items), "bytes": self._bytes}
