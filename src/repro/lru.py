"""A thread-safe LRU map bounded by bytes, not by entries.

Both in-process tiers of the repo sit on it: aged-device images
(:class:`repro.sim.image.ImageCache`) and decoded stored reports
(:class:`repro.experiments.parallel.ResultStore`).  The caller sizes
each value when it puts it, so the bound means whatever that tier
measures: array bytes for an image, file bytes for a report.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["ByteLRU"]


class ByteLRU:
    """Values by key, evicting least-recently-used entries once their
    summed sizes pass ``max_bytes``.  A value larger than the bound is
    never kept.  One lock guards the bookkeeping; the values themselves
    are handed out as they are, so a caller that may mutate one copies
    it."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
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
        evict from the least recently used end down to the bound."""
        with self._lock:
            self._drop(key)
            if size > self.max_bytes:
                return
            self._items[key] = (value, size)
            self._bytes += size
            while self._bytes > self.max_bytes:
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
