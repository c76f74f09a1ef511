"""NAND flash array: page states, block bookkeeping, protocol checks.

The array is deliberately FTL-agnostic: a programmed page carries an
opaque ``meta`` object owned by the FTL (its reverse-mapping record),
which garbage collection later reads back.

Storage layout (the hot-path contract of this module): every per-page /
per-block table is a plain Python buffer — ``bytearray`` for byte-wide
state, :class:`array.array` for counters — because scalar indexing of
those is several times faster than numpy scalar indexing, and the
per-page operations here are the innermost loop of the whole simulator.
The public numpy attributes (``page_state``, ``write_ptr``, ``valid_count``,
``erase_count``, ``last_mod``, ``is_bad``) are **zero-copy views** over
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
from typing import Any, Iterator

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
        self._last_mod = array("q", bytes(8 * n_blocks))
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
        #: logical clock of block mutations, and per-block last-mutation
        #: stamp — the "age" input of cost-benefit GC victim selection
        self.mod_seq = 0
        self.last_mod = np.frombuffer(self._last_mod, dtype=np.int64)
        #: retired (bad) blocks — media wear-out, never reused
        #: (:meth:`retire_block`; injected by :mod:`repro.faults`)
        self.is_bad = np.frombuffer(self._is_bad, dtype=np.bool_)
        #: lifetime totals across every page program / read — the flash
        #: side of the counter-conservation laws checked by
        #: :mod:`repro.check` (plain ints: one increment on the hot path)
        self.total_programs = 0
        self.total_page_reads = 0
        #: FTL metadata of currently-valid pages
        self._meta: dict[int, Any] = {}
        #: out-of-band side columns by name (numpy views over the raw
        #: buffers :meth:`oob_column` hands out): per-page records an FTL
        #: keeps as flat columns instead of inside ``meta`` objects.
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
    def program(self, ppn: int, meta: Any) -> None:
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
        self._meta[ppn] = meta
        seq = self.mod_seq + 1
        self.mod_seq = seq
        self._last_mod[block] = seq

    def read(self, ppn: int) -> Any:
        """Return the meta stored at a VALID page."""
        if self._state[ppn] != PAGE_VALID:
            raise FlashProtocolError(f"read of non-valid PPN {ppn}")
        self.total_page_reads += 1
        return self._meta[ppn]

    def meta(self, ppn: int) -> Any:
        """Peek at a valid page's meta without protocol check semantics."""
        return self._meta[ppn]

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
        block = ppn // self._ppb
        self._valid_count[block] -= 1
        del self._meta[ppn]
        seq = self.mod_seq + 1
        self.mod_seq = seq
        self._last_mod[block] = seq

    def is_valid(self, ppn: int) -> bool:
        """True while the page holds live data."""
        return self._state[ppn] == PAGE_VALID

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
        first (the bad-block *remapping* of
        :meth:`repro.ftl.gc.GarbageCollector.maybe_collect`).  Every
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
        # defensive: a block retired while pooled must leave the pool
        plane = self.geom.plane_of_block(block)
        try:
            self._free_blocks[plane].remove(block)
        except ValueError:
            pass
        seq = self.mod_seq + 1
        self.mod_seq = seq
        self._last_mod[block] = seq

    @property
    def total_bad_blocks(self) -> int:
        """Blocks retired so far (lost over-provisioning)."""
        return sum(self._is_bad)

    def valid_ppns(self, block: int) -> Iterator[int]:
        """Iterate the VALID PPNs of a block (GC migration source)."""
        lo = block * self._ppb
        state = self._state
        for ppn in range(lo, lo + self._ppb):
            if state[ppn] == PAGE_VALID:
                yield ppn

    def block_full(self, block: int) -> bool:
        """True once every page of the block has been programmed."""
        return self._write_ptr[block] == self._ppb

    def valid_items(self):
        """Iterate ``(ppn, meta)`` over every VALID page — the full-device
        OOB scan an FTL performs to rebuild its tables after power loss."""
        return self._meta.items()

    # ------------------------------------------------------------------
    # device-state seam (docs/architecture.md)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Everything mutable, as copied flat arrays: page states, the
        per-block tables, tallies, each plane's free-block deque in
        order, the page metadata encoded into per-kind columns and the
        out-of-band side columns."""
        # deferred: repro.ftl imports this module while initialising
        from ..ftl.meta import encode_metas

        free = self._free_blocks
        out = {
            "page_state": self.page_state.copy(),
            "write_ptr": self.write_ptr.copy(),
            "valid_count": self.valid_count.copy(),
            "erase_count": self.erase_count.copy(),
            "last_mod": self.last_mod.copy(),
            "is_bad": self.is_bad.copy(),
            "tallies": np.array(
                [self.mod_seq, self.total_programs, self.total_page_reads],
                np.int64,
            ),
            "free_counts": np.array([len(q) for q in free], np.int64),
            "free_blocks": np.array(
                [b for q in free for b in q], np.int64
            ),
        }
        out.update(encode_metas(self._meta))
        for name, column in self.oob.items():
            out[name] = column.copy()
        return out

    def load_state(self, s: dict) -> None:
        """Overwrite this array with a :meth:`state` snapshot, in place:
        the raw buffers, their numpy views and the free-block deques are
        bound elsewhere (allocator, GC, fused aging) and keep their
        identity.  Nothing of ``s`` is aliased."""
        from ..ftl.meta import decode_metas

        self.page_state[:] = s["page_state"]
        self.write_ptr[:] = s["write_ptr"]
        self.valid_count[:] = s["valid_count"]
        self.erase_count[:] = s["erase_count"]
        self.last_mod[:] = s["last_mod"]
        self.is_bad[:] = s["is_bad"]
        self.mod_seq, self.total_programs, self.total_page_reads = s[
            "tallies"
        ].tolist()
        blocks = s["free_blocks"].tolist()
        pos = 0
        for q, n in zip(self._free_blocks, s["free_counts"].tolist()):
            q.clear()
            q.extend(blocks[pos : pos + n])
            pos += n
        self._meta.clear()
        self._meta.update(decode_metas(s))
        for name, column in self.oob.items():
            column[:] = s[name]

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
        n_valid_meta = len(self._meta)
        if n_valid_meta != int(self.valid_count.sum()):
            raise FlashProtocolError(
                f"meta store has {n_valid_meta} entries but "
                f"{int(self.valid_count.sum())} pages are valid"
            )

    @property
    def total_valid_pages(self) -> int:
        return int(self.valid_count.sum())

    @property
    def total_erases(self) -> int:
        return int(self.erase_count.sum())
