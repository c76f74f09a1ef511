"""Reverse-mapping records stored with every programmed flash page.

The flash array treats these as opaque; garbage collection reads them
back to know how to re-map a migrated page.  ``payload`` carries the
sector-version stamps used by the correctness oracle and is ``None``
in plain performance runs.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

import numpy as np


class DataPageMeta:
    """A normally-mapped data page holding sectors of one LPN.

    ``mask`` is the page-relative bitmap of the sectors that were live
    when the page was programmed — the out-of-band (OOB) record a real
    FTL scans to rebuild its tables after power loss.
    """

    __slots__ = ("lpn", "mask", "payload")
    kind = "data"

    def __init__(self, lpn: int, mask: int = 0, payload: Optional[dict] = None):
        self.lpn = lpn
        self.mask = mask
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataPageMeta(lpn={self.lpn})"


class AcrossPageMeta:
    """An across-page area: one physical page holding a sector extent
    that spans two logical pages (paper §3.1)."""

    __slots__ = ("aidx", "start", "size", "payload")
    kind = "across"

    def __init__(self, aidx: int, start: int, size: int, payload: Optional[dict] = None):
        self.aidx = aidx
        #: absolute first sector of the re-aligned extent
        self.start = start
        #: extent length in sectors (always <= sectors per page)
        self.size = size
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AcrossPageMeta(aidx={self.aidx}, start={self.start}, size={self.size})"


class MapPageMeta:
    """A translation page: a flash-resident chunk of a mapping table."""

    __slots__ = ("table_id", "tvpn")
    kind = "map"

    def __init__(self, table_id: int, tvpn: int):
        self.table_id = table_id
        self.tvpn = tvpn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MapPageMeta(table={self.table_id}, tvpn={self.tvpn})"


class RegionPageMeta:
    """An MRSM data page packing up to R sub-page regions.

    The page's slot records (region key, written-sector mask and
    liveness per slot) are out-of-band side columns of the flash array
    (:attr:`repro.flash.array.FlashArray.oob`, written by
    :class:`~repro.ftl.mrsm.MRSMFTL`), so this record only carries the
    ``payloads`` stamps of oracle runs; a run without them programs the
    one shared :data:`REGION_PAGE`.
    """

    __slots__ = ("payloads",)
    kind = "region"

    def __init__(self, payloads: Optional[dict] = None):
        self.payloads = payloads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RegionPageMeta()"


#: the record of every region page programmed without payload stamps
REGION_PAGE = RegionPageMeta()


# ----------------------------------------------------------------------
# column codec (the device-state seam, docs/architecture.md)
# ----------------------------------------------------------------------
#: ``meta_kind`` codes, in the order the per-kind columns are written
_KIND_CODE = {DataPageMeta: 0, MapPageMeta: 1, RegionPageMeta: 2, AcrossPageMeta: 3}

#: a region page has no per-page record to encode: its slots are the
#: array's out-of-band side columns, which take these four names in an
#: mrsm image.  A scheme that registers none writes them empty, so every
#: image has the same fields whatever the scheme.
_NO_REGION_COLUMNS = {
    "region_slots": np.int64,
    "region_key": np.int64,
    "region_live": np.bool_,
    "region_mask": np.uint64,
}


def encode_metas(metas: dict) -> dict:
    """Flat columns for a ``ppn -> meta`` dict.

    ``meta_ppn``/``meta_kind`` keep the dict order; each kind's columns
    hold its records in that same order (data: lpn/mask, map: table/tvpn,
    across: aidx/start/size; a region page is its kind code alone).
    Payload stamps (oracle runs) have no column and are refused.
    """
    kinds = []
    data_lpn, data_mask = [], []
    map_table, map_tvpn = [], []
    across_aidx, across_start, across_size = [], [], []
    for m in metas.values():
        code = _KIND_CODE[type(m)]
        kinds.append(code)
        if code == 0:
            payload = m.payload
            data_lpn.append(m.lpn)
            data_mask.append(m.mask)
        elif code == 1:
            payload = None
            map_table.append(m.table_id)
            map_tvpn.append(m.tvpn)
        elif code == 2:
            payload = m.payloads
        else:
            payload = m.payload
            across_aidx.append(m.aidx)
            across_start.append(m.start)
            across_size.append(m.size)
        if payload is not None:
            raise ValueError(
                "page metadata carrying payload stamps cannot be imaged"
            )
    i64, u64 = np.int64, np.uint64
    out = {
        "meta_ppn": np.fromiter(metas, i64, len(metas)),
        "meta_kind": np.array(kinds, np.uint8),
        "data_lpn": np.array(data_lpn, i64),
        "data_mask": np.array(data_mask, u64),
        "map_table": np.array(map_table, i64),
        "map_tvpn": np.array(map_tvpn, i64),
        "across_aidx": np.array(across_aidx, i64),
        "across_start": np.array(across_start, i64),
        "across_size": np.array(across_size, i64),
    }
    for name, dtype in _NO_REGION_COLUMNS.items():
        out[name] = np.empty(0, dtype)
    return out


def decode_metas(cols: dict) -> dict:
    """Inverse of :func:`encode_metas`: fresh meta objects (region pages
    share :data:`REGION_PAGE`), same dict order."""
    per_kind = (
        map(DataPageMeta, cols["data_lpn"].tolist(), cols["data_mask"].tolist()),
        map(MapPageMeta, cols["map_table"].tolist(), cols["map_tvpn"].tolist()),
        repeat(REGION_PAGE),
        map(
            AcrossPageMeta,
            cols["across_aidx"].tolist(),
            cols["across_start"].tolist(),
            cols["across_size"].tolist(),
        ),
    )
    values = [next(per_kind[k]) for k in cols["meta_kind"].tolist()]
    return dict(zip(cols["meta_ppn"].tolist(), values))
