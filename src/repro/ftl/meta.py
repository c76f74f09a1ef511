"""Reverse-mapping records stored with every programmed flash page.

The flash array keeps them as four flat columns indexed by PPN
(``kind``, ``a``, ``b``, ``c`` — see :func:`record`) and treats the
fields as opaque; garbage collection reads the columns back to know how
to re-map a migrated page.  The classes here are the same records as
objects, built on demand for the cold paths.  ``payload`` carries the
sector-version stamps used by the correctness oracle (one sparse
``ppn -> dict`` beside the columns) and is ``None`` in plain
performance runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: ``kind`` column codes of :class:`~repro.flash.array.FlashArray`
#: (0, the array's own "no record", is a page that is not VALID)
KIND_DATA = 1
KIND_MAP = 2
KIND_REGION = 3
KIND_ACROSS = 4


class DataPageMeta(NamedTuple):
    """A normally-mapped data page holding sectors of one LPN.

    ``mask`` is the page-relative bitmap of the sectors that were live
    when the page was programmed — the out-of-band (OOB) record a real
    FTL scans to rebuild its tables after power loss.
    """

    lpn: int
    mask: int = 0
    payload: Optional[dict] = None
    kind = "data"


class AcrossPageMeta(NamedTuple):
    """An across-page area: one physical page holding a sector extent
    that spans two logical pages (paper §3.1)."""

    aidx: int
    #: absolute first sector of the re-aligned extent
    start: int
    #: extent length in sectors (always <= sectors per page)
    size: int
    payload: Optional[dict] = None
    kind = "across"


class MapPageMeta(NamedTuple):
    """A translation page: a flash-resident chunk of a mapping table."""

    table_id: int
    tvpn: int
    kind = "map"


class RegionPageMeta(NamedTuple):
    """An MRSM data page packing up to R sub-page regions.

    The page's slot records (region key, written-sector mask and
    liveness per slot) are out-of-band side columns of the flash array
    (:attr:`repro.flash.array.FlashArray.oob`, written by
    :class:`~repro.ftl.mrsm.MRSMFTL`), so this record only carries the
    ``payloads`` stamps of oracle runs.
    """

    payloads: Optional[dict] = None
    kind = "region"


def record(kind: int, a: int, b: int, c: int, payload: Optional[dict]):
    """The record object of one row of the array's ``kind`` / ``a`` /
    ``b`` / ``c`` columns (``a`` = lpn | table id | aidx, ``b`` = mask |
    tvpn | start, ``c`` = size) — what
    :meth:`repro.flash.array.FlashArray.meta` hands the checker,
    recovery and tests.  The hot paths read the columns."""
    if kind == KIND_DATA:
        return DataPageMeta(a, b, payload)
    if kind == KIND_MAP:
        return MapPageMeta(a, b)
    if kind == KIND_REGION:
        return RegionPageMeta(payload)
    if kind == KIND_ACROSS:
        return AcrossPageMeta(a, b, c, payload)
    raise KeyError(f"page holds no record (kind {kind})")
