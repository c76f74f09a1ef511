"""Aged-device images: capture, restore and cache a device's state.

Aging reads only the device config, the scheme and its kwargs, and the
aging fields of :class:`~repro.config.SimConfig` — never the trace — so
every run of a sweep that shares those ages the same device.  This
module is what lets :meth:`repro.sim.engine.Simulator.age_device` do
that work once:

* **the seam** — every component an aging write can touch has a
  ``state()`` / ``load_state()`` pair (flat numpy arrays plus a few
  plain values); :func:`device_state` walks them for one FTL and
  :func:`load_device_state` writes such a snapshot into a fresh device,
  in place and without aliasing it.  No ``deepcopy``, no ``pickle``.
* **the image** — :class:`DeviceImage` is that snapshot flattened to
  ``component.field -> array`` plus a small JSON header (format
  version, the full key, geometry, the plain values), savable as one
  ``.npz``.
* **the cache** — :class:`ImageCache`: tier 1 a lock-guarded,
  byte-bounded in-process LRU, :class:`~repro.lru.ByteLRU` (each pool
  worker keeps its images for its lifetime); tier 2, when the caller
  names a directory, one ``<key>.npz`` per image written with
  temp-file + ``os.replace`` and read as a miss on anything wrong.
  :data:`IMAGES` is the process's instance; ``Simulator.age_device``
  is its only caller.

See docs/architecture.md, "Device state seam".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..config import SimConfig
from ..lru import ByteLRU

__all__ = [
    "IMAGE_VERSION",
    "IMAGES",
    "REPLAY_ONLY_FIELDS",
    "DeviceImage",
    "ImageCache",
    "device_geometry",
    "device_state",
    "image_key",
    "load_device_state",
    "state_diff",
]

#: bump whenever aging behaviour or the image layout changes: files of
#: another version are misses and get overwritten
#: (tests/test_image.py pins a fingerprint per scheme to remind you)
IMAGE_VERSION = 6

#: byte bound of the in-process tier (bench-device images are 2-5 MiB)
MEMORY_BYTES = 64 * 1024 * 1024

#: SimConfig fields that cannot change what aging leaves behind — they
#: steer replay or reporting only — and therefore stay out of the image
#: key.  Each one is tested individually (tests/test_image.py); every
#: other field is part of the key.
REPLAY_ONLY_FIELDS = (
    "qos_streams",
    "queue_depth",
    "frontend",
    "batch",
    "progress",
    "record_latencies",
    "record_requests",
    "record_wear",
    "snapshot_every",
    "observability",
)

_HEADER = "__header__"


# ----------------------------------------------------------------------
# the seam
# ----------------------------------------------------------------------
def _components(ftl) -> dict:
    """Name -> component, for everything an aging write can touch."""
    service = ftl.service
    parts = {
        "array": service.array,
        "timeline": service.timeline,
        "allocator": ftl.allocator,
        "gc": ftl.gc,
    }
    for table_id, cache in ftl.map_caches.items():
        parts[f"cache{table_id}"] = cache
    parts["ftl"] = ftl
    return parts


def device_state(ftl) -> dict[str, dict]:
    """``{component: its state()}`` for one FTL and the device under it."""
    state = {name: part.state() for name, part in _components(ftl).items()}
    state["counters"] = ftl.counters.snapshot()
    return state


def load_device_state(ftl, state: dict[str, dict]) -> None:
    """Write a :func:`device_state` snapshot into ``ftl``'s device."""
    for name, part in _components(ftl).items():
        part.load_state(state[name])
    ftl.counters.load_state(state["counters"])


def state_diff(a: dict[str, dict], b: dict[str, dict]) -> list[str]:
    """The ``component.field`` names on which two :func:`device_state`
    snapshots differ — arrays by dtype, shape and content.  Every dict,
    LRU and deque of the device is stored as a sequence, so its *order*
    is compared too."""

    def same(x, y) -> bool:
        if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
            return x.dtype == y.dtype and np.array_equal(x, y)
        return type(x) is type(y) and x == y

    out = []
    for comp in sorted(a.keys() | b.keys()):
        fa, fb = a.get(comp, {}), b.get(comp, {})
        for name in sorted(fa.keys() | fb.keys()):
            if not same(fa.get(name), fb.get(name)):
                out.append(f"{comp}.{name}")
    return out


def device_geometry(ftl) -> dict:
    """The array sizes an image must match to be loadable into ``ftl``
    (carried in the image header)."""
    geom = ftl.geom
    return {
        "num_pages": geom.num_pages,
        "num_blocks": geom.num_blocks,
        "num_planes": geom.num_planes,
        "num_chips": geom.num_chips,
        "logical_pages": ftl.logical_pages,
        "sectors_per_page": ftl.spp,
    }


def image_key(ftl, sim_cfg: SimConfig) -> str:
    """Stable hash of everything aging depends on: the
    :func:`~repro.experiments.parallel.run_key` document minus the
    trace and minus :data:`REPLAY_ONLY_FIELDS`."""
    sim_doc = dataclasses.asdict(sim_cfg)
    for name in REPLAY_ONLY_FIELDS:
        del sim_doc[name]
    doc = {
        "scheme": ftl.name,
        "cfg": dataclasses.asdict(ftl.cfg),
        "sim_cfg": sim_doc,
        "ftl_kw": {str(k): repr(v) for k, v in ftl.ftl_kw.items()},
    }
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# the image
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class DeviceImage:
    """One device snapshot: read-only arrays plus a JSON header."""

    #: ``version``, ``key``, ``geometry`` and ``values`` (the non-array
    #: state entries, by ``component.field``)
    header: dict
    #: ``component.field`` -> array
    arrays: dict

    @classmethod
    def capture(cls, ftl, key: str) -> "DeviceImage":
        """Snapshot ``ftl``'s device under ``key``."""
        arrays, values = {}, {}
        for comp, fields in device_state(ftl).items():
            for name, value in fields.items():
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
                    arrays[f"{comp}.{name}"] = value
                else:
                    values[f"{comp}.{name}"] = value
        header = {
            "version": IMAGE_VERSION,
            "key": key,
            "geometry": device_geometry(ftl),
            "values": values,
        }
        # through JSON once, so a memory-tier image restores from the
        # very types a disk-tier one does
        return cls(json.loads(json.dumps(header)), arrays)

    def restore(self, ftl) -> None:
        """Fill ``ftl``'s (fresh) device from this image; the image
        itself stays untouched — every ``load_state`` copies."""
        state: dict[str, dict] = {}
        for source in (self.arrays, self.header["values"]):
            for dotted, value in source.items():
                comp, name = dotted.split(".", 1)
                state.setdefault(comp, {})[name] = value
        load_device_state(ftl, state)

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays (what the memory tier is bounded by)."""
        return sum(a.nbytes for a in self.arrays.values())

    def fingerprint(self) -> str:
        """Content hash over the values and every array (the pin of
        tests/test_image.py)."""
        h = hashlib.sha256(
            json.dumps(self.header["values"], sort_keys=True).encode()
        )
        for name in sorted(self.arrays):
            a = self.arrays[name]
            h.update(f"|{name}:{a.dtype.str}:{a.shape}|".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def save(self, path: Path) -> None:
        """Write ``path`` atomically (temp file + ``os.replace``), so a
        reader or a concurrent writer of the same key only ever sees a
        complete file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = np.frombuffer(json.dumps(self.header).encode(), np.uint8)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **{_HEADER: blob}, **self.arrays)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: Path, key: str, geometry: dict) -> Optional["DeviceImage"]:
        """The image at ``path``, or None on anything wrong: missing,
        truncated, not an ``.npz``, another :data:`IMAGE_VERSION`, or a
        header whose key or geometry disagrees."""
        try:
            with np.load(path) as npz:
                header = json.loads(bytes(npz[_HEADER]))
                if (
                    header["version"] != IMAGE_VERSION
                    or header["key"] != key
                    or header["geometry"] != geometry
                ):
                    return None
                arrays = {n: npz[n] for n in npz.files if n != _HEADER}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return None
        for a in arrays.values():
            a.setflags(write=False)
        return cls(header, arrays)


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class ImageCache:
    """Two-tier store of :class:`DeviceImage` by :func:`image_key`.

    Images are immutable once captured, so one may be handed to any
    number of threads; the memory tier's lock guards its LRU
    bookkeeping only.
    """

    def __init__(self, max_bytes: int = MEMORY_BYTES):
        self._memory = ByteLRU(max_bytes)

    @property
    def max_bytes(self) -> int:
        """Byte bound of the in-process tier."""
        return self._memory.max_bytes

    def fetch(
        self, key: str, geometry: dict, image_dir: Path | None = None
    ) -> tuple[DeviceImage, str] | None:
        """``(image, "memory" | "disk")`` for ``key``, or None."""
        image = self._memory.get(key)
        if image is not None:
            return image, "memory"
        if image_dir is None:
            return None
        image = DeviceImage.load(Path(image_dir) / f"{key}.npz", key, geometry)
        if image is None:
            return None
        self._memory.put(key, image, image.nbytes)
        return image, "disk"

    def store(self, image: DeviceImage, image_dir: Path | None = None) -> None:
        """Keep ``image`` in memory and, with ``image_dir``, on disk.  A
        disk that refuses the write costs the next process a rebuild,
        never this run."""
        key = image.header["key"]
        self._memory.put(key, image, image.nbytes)
        if image_dir is not None:
            try:
                image.save(Path(image_dir) / f"{key}.npz")
            except OSError:
                pass

    def clear(self) -> None:
        """Drop the in-process tier."""
        self._memory.clear()

    def stats(self) -> dict[str, int]:
        """Thread-safe snapshot: images and bytes held in memory."""
        return self._memory.stats()


#: the process-wide cache behind ``Simulator.age_device`` (pool workers
#: are spawned processes: each has its own and keeps it between runs)
IMAGES = ImageCache()
