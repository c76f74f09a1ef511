"""NAND flash array: page states, block bookkeeping, protocol checks.

The array is deliberately FTL-agnostic: a programmed page carries the
FTL's reverse-mapping record — a ``kind`` code and three integer fields
whose meaning the FTL owns (:mod:`repro.ftl.meta`) — in four columns
indexed by PPN, which garbage collection later reads back a block at a
time.

Storage layout (the hot-path contract of this module): every per-page /
per-block table is a plain Python buffer — ``bytearray`` for byte-wide
state, :class:`array.array` for counters — because scalar indexing of
those is several times faster than numpy scalar indexing, and the
per-page operations here are the innermost loop of the whole simulator.
The public numpy attributes (``page_state``, ``write_ptr``, ``valid_count``,
``erase_count``, ``is_bad``, ``kind``, ``a``, ``b``, ``c``)
are **zero-copy views** over
the same buffers (``np.frombuffer``), so vectorised consumers — GC
victim selection, wear statistics, observability samplers, tests — read
and write the very same memory.  Even the full Table 1 device (16.7 M
pages) stays compact.

NAND protocol rules enforced here (violations raise
:class:`~repro.errors.FlashProtocolError`, because they always indicate
FTL bugs):

* a page can only be programmed while FREE, and pages within a block
  must be programmed in order (the one-shot sequential-program rule);
* only VALID pages can be read;
* a block can only be erased when it holds no VALID page.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Optional

import numpy as np

from ..errors import FlashProtocolError, OutOfSpaceError
from ..geometry import FlashGeometry

PAGE_FREE = 0
PAGE_VALID = 1
PAGE_INVALID = 2
#: page of a retired (bad) block — never programmable again
PAGE_BAD = 3


class FlashArray:
    """Physical page state for one device."""

    def __init__(self, geom: FlashGeometry):
        self.geom = geom
        n_pages = geom.num_pages
        n_blocks = geom.num_blocks
        ppb = geom.pages_per_block
        self._ppb = ppb
        # raw buffers (fast scalar access on the per-page hot path)
        self._state = bytearray(n_pages)
        self._write_ptr = array("i", bytes(4 * n_blocks))
        self._valid_count = array("i", bytes(4 * n_blocks))
        self._erase_count = array("q", bytes(8 * n_blocks))
        self._is_bad = bytearray(n_blocks)
        # precomputed page-state runs for whole-block erase/retire
        self._free_run = bytes(ppb)
        self._bad_run = bytes([PAGE_BAD]) * ppb
        # zero-copy numpy views over the same memory (vectorised readers
        # and writers — GC, wear stats, samplers, tests — see every
        # scalar mutation instantly, and vice versa)
        self.page_state = np.frombuffer(self._state, dtype=np.uint8)
        #: next page index to program, per global block
        self.write_ptr = np.frombuffer(self._write_ptr, dtype=np.int32)
        #: number of VALID pages, per global block
        self.valid_count = np.frombuffer(self._valid_count, dtype=np.int32)
        #: lifetime erase count, per global block (wear indicator)
        self.erase_count = np.frombuffer(self._erase_count, dtype=np.int64)
        #: retired (bad) blocks — media wear-out, never reused
        #: (:meth:`retire_block`; injected by :mod:`repro.faults`)
        self.is_bad = np.frombuffer(self._is_bad, dtype=np.bool_)
        #: lifetime totals across every page program / read — the flash
        #: side of the counter-conservation laws checked by
        #: :mod:`repro.check` (plain ints: one increment on the hot path)
        self.total_programs = 0
        self.total_page_reads = 0
        #: blocks retired so far (``is_bad.sum()``, kept as a counter)
        self.total_bad_blocks = 0
        # the FTL's record of every VALID page, as columns by PPN:
        # ``kind`` (0 = no record: the page is not VALID) and the fields
        # ``a``, ``b``, ``c`` (:mod:`repro.ftl.meta`), stale once ``kind``
        # is cleared
        self._kind = bytearray(n_pages)
        self._a = array("q", [0]) * n_pages
        self._b = array("Q", [0]) * n_pages
        self._c = array("i", [0]) * n_pages
        self.kind = np.frombuffer(self._kind, dtype=np.uint8)
        self.a = np.frombuffer(self._a, dtype=np.int64)
        self.b = np.frombuffer(self._b, dtype=np.uint64)
        self.c = np.frombuffer(self._c, dtype=np.int32)
        #: sector-version stamps of oracle runs: ``ppn -> dict`` for the
        #: VALID pages programmed with any (aging writes none)
        self.payloads: dict[int, dict] = {}
        #: out-of-band side columns by name (numpy views over the raw
        #: buffers :meth:`oob_column` hands out): further per-page
        #: records an FTL keeps, with a layout of its own.
        #: They are flash content — captured and restored with the
        #: array, never reset by it (an erased page's record is stale
        #: until the page is programmed again, and nobody reads it).
        self.oob: dict[str, np.ndarray] = {}
        #: per-plane pool of fully-erased blocks (global block ids)
        self._free_blocks: list[deque[int]] = [
            deque(
                range(
                    p * geom.blocks_per_plane, (p + 1) * geom.blocks_per_plane
                )
            )
            for p in range(geom.num_planes)
        ]

    # ------------------------------------------------------------------
    # free-block pool
    # ------------------------------------------------------------------
    def free_block_count(self, plane: int) -> int:
        """Fully-erased blocks currently pooled in ``plane``."""
        return len(self._free_blocks[plane])

    def free_fraction(self, plane: int) -> float:
        """Free-block share of ``plane`` (the GC trigger input)."""
        return len(self._free_blocks[plane]) / self.geom.blocks_per_plane

    def total_free_blocks(self) -> int:
        """Free blocks across every plane."""
        return sum(len(q) for q in self._free_blocks)

    def pop_free_block(self, plane: int) -> int:
        """Take a fully-erased block from ``plane``'s pool."""
        q = self._free_blocks[plane]
        if not q:
            raise OutOfSpaceError(f"plane {plane} has no free block")
        return q.popleft()

    # ------------------------------------------------------------------
    # page operations
    # ------------------------------------------------------------------
    def program(
        self, ppn: int, kind: int, a: int = 0, b: int = 0, c: int = 0,
        payload: Optional[dict] = None,
    ) -> None:
        """Program one page, storing the FTL's reverse-map record."""
        state = self._state
        if state[ppn] != PAGE_FREE:
            raise FlashProtocolError(f"program of non-free PPN {ppn}")
        ppb = self._ppb
        block = ppn // ppb
        page = ppn - block * ppb
        wp = self._write_ptr
        if page != wp[block]:
            raise FlashProtocolError(
                f"out-of-order program: block {block} expects page "
                f"{wp[block]}, got {page}"
            )
        state[ppn] = PAGE_VALID
        wp[block] = page + 1
        self._valid_count[block] += 1
        self.total_programs += 1
        self._kind[ppn] = kind
        self._a[ppn] = a
        self._b[ppn] = b
        self._c[ppn] = c
        if payload:
            self.payloads[ppn] = payload

    def read(self, ppn: int) -> None:
        """Read a VALID page: protocol check and tally."""
        if self._state[ppn] != PAGE_VALID:
            raise FlashProtocolError(f"read of non-valid PPN {ppn}")
        self.total_page_reads += 1

    def record(self, ppn: int) -> tuple[int, int, int, int]:
        """A page's ``(kind, a, b, c)`` — what :meth:`program` took."""
        return self._kind[ppn], self._a[ppn], self._b[ppn], self._c[ppn]

    def meta(self, ppn: int):
        """A valid page's record as a :mod:`repro.ftl.meta` object, for
        the cold paths; ``KeyError`` for a page that holds none."""
        # deferred: repro.ftl imports this module while initialising
        from ..ftl.meta import record

        return record(*self.record(ppn), self.payloads.get(ppn))

    def oob_column(
        self, name: str, typecode: str, per_page: int = 1, fill: int = 0
    ) -> array:
        """Register the out-of-band side column ``name``: ``per_page``
        records of ``typecode`` for every physical page, each ``fill``
        to start with.  Returns the raw buffer for the owner's scalar
        indexing; :attr:`oob` keeps the numpy view over it."""
        if name in self.oob:
            raise ValueError(f"out-of-band column {name!r} registered twice")
        raw = array(typecode, [fill]) * (self.geom.num_pages * per_page)
        self.oob[name] = np.frombuffer(raw, dtype=typecode)
        return raw

    def invalidate(self, ppn: int) -> None:
        """Mark a VALID page stale (its data was superseded)."""
        state = self._state
        if state[ppn] != PAGE_VALID:
            raise FlashProtocolError(f"invalidate of non-valid PPN {ppn}")
        state[ppn] = PAGE_INVALID
        self._valid_count[ppn // self._ppb] -= 1
        self._kind[ppn] = 0
        if self.payloads:
            self.payloads.pop(ppn, None)

    def is_valid(self, ppn: int) -> bool:
        """True while the page holds live data."""
        return self._state[ppn] == PAGE_VALID

    def copy_run(self, src: np.ndarray, dst: int) -> None:
        """Move the pages ``src`` (ascending PPNs of one block) onto the
        run of free pages from ``dst`` on inside another: ``read(s);
        program(d, *record(s)); invalidate(s)`` pair by pair — checks
        and tallies included — as column operations.
        Payload stamps have no column and stay behind."""
        n = len(src)
        state = self.page_state
        if (state[src] != PAGE_VALID).any():
            bad = int(src[state[src] != PAGE_VALID][0])
            raise FlashProtocolError(f"read of non-valid PPN {bad}")
        ppb = self._ppb
        block = dst // ppb
        page = dst - block * ppb
        wp = self._write_ptr
        end = dst + n
        if page != wp[block] or page + n > ppb or state[dst:end].any():
            raise FlashProtocolError(
                f"out-of-order or non-free program: block {block} expects "
                f"page {wp[block]}, got a run of {n} from {page}"
            )
        old_block = int(src[0]) // ppb
        state[dst:end] = PAGE_VALID
        state[src] = PAGE_INVALID
        wp[block] = page + n
        self._valid_count[block] += n
        self._valid_count[old_block] -= n
        self.total_page_reads += n
        self.total_programs += n
        self.kind[dst:end] = self.kind[src]
        self.a[dst:end] = self.a[src]
        self.b[dst:end] = self.b[src]
        self.c[dst:end] = self.c[src]
        self.kind[src] = 0

    # ------------------------------------------------------------------
    # block operations
    # ------------------------------------------------------------------
    def erase(self, block: int, *, aging: bool = False) -> None:
        """Erase a block and return it to its plane's free pool."""
        if self._valid_count[block] != 0:
            raise FlashProtocolError(
                f"erase of block {block} holding "
                f"{self._valid_count[block]} valid pages"
            )
        if self._is_bad[block]:
            raise FlashProtocolError(f"erase of retired bad block {block}")
        lo = block * self._ppb
        self._state[lo : lo + self._ppb] = self._free_run
        self._write_ptr[block] = 0
        self._erase_count[block] += 1
        plane = self.geom.plane_of_block(block)
        self._free_blocks[plane].append(block)

    def retire_block(self, block: int) -> None:
        """Permanently retire a bad block (media wear-out).

        The block must hold no valid pages — callers relocate live data
        first (the bad-block *remapping* that
        ``GarbageCollector._drain_retirements`` does).  Every
        page goes to ``PAGE_BAD``, the write pointer is sealed, and the
        block never re-enters its plane's free pool: over-provisioning
        shrinks by one block, which is the graceful-degradation
        feedback into the GC trigger.
        """
        if self._valid_count[block] != 0:
            raise FlashProtocolError(
                f"retire of block {block} holding "
                f"{self._valid_count[block]} valid pages"
            )
        if self._is_bad[block]:
            raise FlashProtocolError(f"double retire of block {block}")
        lo = block * self._ppb
        self._state[lo : lo + self._ppb] = self._bad_run
        self._write_ptr[block] = self._ppb
        self._is_bad[block] = 1
        self.total_bad_blocks += 1
        # defensive: a block retired while pooled must leave the pool
        plane = self.geom.plane_of_block(block)
        try:
            self._free_blocks[plane].remove(block)
        except ValueError:
            pass

    def valid_ppns(self, block: int) -> np.ndarray:
        """The VALID PPNs of a block, ascending (GC migration source)."""
        lo = block * self._ppb
        return lo + np.flatnonzero(
            self.page_state[lo : lo + self._ppb] == PAGE_VALID
        )

    def block_full(self, block: int) -> bool:
        """True once every page of the block has been programmed."""
        return self._write_ptr[block] == self._ppb

    # ------------------------------------------------------------------
    # device-state seam (docs/architecture.md)
    # ------------------------------------------------------------------
    #: the per-page and per-block columns, by attribute name
    _COLUMNS = (
        "page_state", "write_ptr", "valid_count", "erase_count", "is_bad",
        "kind", "a", "b", "c",
    )

    def _columns(self) -> dict[str, np.ndarray]:
        """Every column view by its :meth:`state` name, side columns too."""
        return {**{n: getattr(self, n) for n in self._COLUMNS}, **self.oob}

    def state(self) -> dict:
        """Everything mutable, as copied flat arrays: every column (the
        stale record fields of pages that hold none zeroed), tallies and
        each plane's free-block deque in order.  Payload stamps (oracle
        runs) have no column and are refused."""
        if self.payloads:
            raise ValueError(
                "page metadata carrying payload stamps cannot be imaged"
            )
        free = self._free_blocks
        out = {name: col.copy() for name, col in self._columns().items()}
        live = out["kind"] != 0
        for name in "abc":
            out[name] *= live
        out.update(
            tallies=np.array(
                [self.total_programs, self.total_page_reads], np.int64
            ),
            free_counts=np.array([len(q) for q in free], np.int64),
            free_blocks=np.array([b for q in free for b in q], np.int64),
        )
        return out

    def load_state(self, s: dict) -> None:
        """Overwrite this array with a :meth:`state` snapshot, in place:
        the raw buffers, their numpy views and the free-block deques are
        bound elsewhere (allocator, GC) and keep their
        identity.  Nothing of ``s`` is aliased."""
        for name, col in self._columns().items():
            col[:] = s[name]
        self.payloads.clear()
        self.total_bad_blocks = int(self.is_bad.sum())
        self.total_programs, self.total_page_reads = s["tallies"].tolist()
        blocks = s["free_blocks"].tolist()
        pos = 0
        for q, n in zip(self._free_blocks, s["free_counts"].tolist()):
            q.clear()
            q.extend(blocks[pos : pos + n])
            pos += n

    # ------------------------------------------------------------------
    # invariants (used by tests and sanity sweeps)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the block bookkeeping against the raw page states."""
        ppb = self.geom.pages_per_block
        states = self.page_state.reshape(-1, ppb)
        valid = (states == PAGE_VALID).sum(axis=1)
        if not np.array_equal(valid, self.valid_count):
            bad = np.nonzero(valid != self.valid_count)[0][:5]
            raise FlashProtocolError(f"valid_count mismatch in blocks {bad}")
        # every page at or past the write pointer must be FREE, every
        # page before it must not be FREE
        past_wp = np.arange(ppb)[None, :] >= self.write_ptr[:, None]
        is_free = states == PAGE_FREE
        bad = np.nonzero((is_free & ~past_wp).any(axis=1))[0]
        if bad.size:
            raise FlashProtocolError(f"block {int(bad[0])}: free before wp")
        bad = np.nonzero((~is_free & past_wp).any(axis=1))[0]
        if bad.size:
            raise FlashProtocolError(f"block {int(bad[0])}: non-free past wp")
        bad = np.nonzero(self.is_bad)[0]
        if bad.size and (self.write_ptr[bad] != ppb).any():
            raise FlashProtocolError("retired block with unsealed write ptr")
        bad = np.nonzero((self.kind != 0) != (self.page_state == PAGE_VALID))[0]
        if bad.size:
            raise FlashProtocolError(
                f"PPN {int(bad[0])}: a page holds a record exactly while "
                f"it is valid (kind {int(self.kind[bad[0]])}, state "
                f"{int(self.page_state[bad[0]])})"
            )

    @property
    def total_valid_pages(self) -> int:
        return int(self.valid_count.sum())

    @property
    def total_erases(self) -> int:
        return int(self.erase_count.sum())
