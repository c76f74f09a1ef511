"""FTL schemes and shared FTL machinery.

Three host-visible schemes are provided, matching the paper's §4.1
comparison set:

* :class:`~repro.ftl.pagemap.PageMapFTL` — the baseline dynamic
  page-level mapping scheme (``"ftl"``),
* :class:`~repro.ftl.mrsm.MRSMFTL` — multiregional sub-page space
  management (``"mrsm"``, Chen et al. TCAD'20),
* :class:`~repro.core.across.AcrossFTL` — the paper's contribution
  (``"across"``), re-exported here for symmetry.

Shared machinery: write allocation, greedy garbage collection, and the
DRAM mapping cache with translation-page flash traffic.
"""

from .allocator import WriteAllocator
from .base import BaseFTL
from .gc import GarbageCollector
from .mapping_cache import MappingCache
from .mrsm import MRSMFTL
from .pagemap import PageMapFTL


def make_ftl(scheme: str, service, **kw):
    """Instantiate an FTL scheme by its canonical name (one of
    :data:`repro.config.SCHEMES`)."""
    from ..core.across import AcrossFTL

    schemes = {"ftl": PageMapFTL, "mrsm": MRSMFTL, "across": AcrossFTL}
    try:
        cls = schemes[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {sorted(schemes)}"
        ) from None
    ftl = cls(service, **kw)
    ftl.ftl_kw = dict(kw)
    return ftl


__all__ = [
    "BaseFTL",
    "PageMapFTL",
    "MRSMFTL",
    "WriteAllocator",
    "GarbageCollector",
    "MappingCache",
    "make_ftl",
]
