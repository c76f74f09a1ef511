"""Reverse-mapping records stored with every programmed flash page.

The flash array treats these as opaque; garbage collection reads them
back to know how to re-map a migrated page.  ``payload`` carries the
sector-version stamps used by the correctness oracle and is ``None``
in plain performance runs.
"""

from __future__ import annotations

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

    ``slots`` holds one ``(region_key, live)`` pair per packed region;
    a page stays VALID in the array while any slot is live.  ``masks``
    records each slot's written-sector bitmap (region-relative) for
    table reconstruction.
    """

    __slots__ = ("slots", "masks", "payloads")
    kind = "region"

    def __init__(
        self,
        slots: list,
        masks: Optional[list] = None,
        payloads: Optional[dict] = None,
    ):
        self.slots = slots
        self.masks = masks if masks is not None else [0] * len(slots)
        self.payloads = payloads

    def live_count(self) -> int:
        """Number of slots still holding the newest copy of a region."""
        return sum(1 for _, live in self.slots if live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionPageMeta({self.slots!r})"


# ----------------------------------------------------------------------
# column codec (the device-state seam, docs/architecture.md)
# ----------------------------------------------------------------------
#: ``meta_kind`` codes, in the order the per-kind columns are written
_KIND_CODE = {DataPageMeta: 0, MapPageMeta: 1, RegionPageMeta: 2, AcrossPageMeta: 3}


def encode_metas(metas: dict) -> dict:
    """Flat columns for a ``ppn -> meta`` dict.

    ``meta_ppn``/``meta_kind`` keep the dict order; each kind's columns
    hold its records in that same order (data: lpn/mask, map: table/tvpn,
    region: slot count + flattened key/live/mask, across:
    aidx/start/size).  Payload stamps (oracle runs) have no column and
    are refused.
    """
    kinds = []
    data_lpn, data_mask = [], []
    map_table, map_tvpn = [], []
    region_slots, region_key, region_live, region_mask = [], [], [], []
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
            region_slots.append(len(m.slots))
            for key, live in m.slots:
                region_key.append(key)
                region_live.append(live)
            region_mask.extend(m.masks)
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
    return {
        "meta_ppn": np.fromiter(metas, i64, len(metas)),
        "meta_kind": np.array(kinds, np.uint8),
        "data_lpn": np.array(data_lpn, i64),
        "data_mask": np.array(data_mask, u64),
        "map_table": np.array(map_table, i64),
        "map_tvpn": np.array(map_tvpn, i64),
        "region_slots": np.array(region_slots, i64),
        "region_key": np.array(region_key, i64),
        "region_live": np.array(region_live, np.bool_),
        "region_mask": np.array(region_mask, u64),
        "across_aidx": np.array(across_aidx, i64),
        "across_start": np.array(across_start, i64),
        "across_size": np.array(across_size, i64),
    }


def decode_metas(cols: dict) -> dict:
    """Inverse of :func:`encode_metas`: fresh meta objects, same dict
    order."""
    slots = list(zip(cols["region_key"].tolist(), cols["region_live"].tolist()))
    masks = cols["region_mask"].tolist()
    regions = []
    pos = 0
    for n in cols["region_slots"].tolist():
        regions.append(RegionPageMeta(slots[pos : pos + n], masks[pos : pos + n]))
        pos += n
    per_kind = (
        map(DataPageMeta, cols["data_lpn"].tolist(), cols["data_mask"].tolist()),
        map(MapPageMeta, cols["map_table"].tolist(), cols["map_tvpn"].tolist()),
        iter(regions),
        map(
            AcrossPageMeta,
            cols["across_aidx"].tolist(),
            cols["across_start"].tolist(),
            cols["across_size"].tolist(),
        ),
    )
    values = [next(per_kind[k]) for k in cols["meta_kind"].tolist()]
    return dict(zip(cols["meta_ppn"].tolist(), values))
