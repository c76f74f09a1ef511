"""Flash-operation and DRAM-access counters.

The paper's Figures 10-12 are built from exactly these counts: flash
reads and writes split into *Data* (user payload) and *Map* (mapping
table pages spilled to / fetched from flash), erase counts (Fig. 11),
and DRAM access counts (Fig. 12b).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum


class OpKind(str, Enum):
    """Why a flash operation happened — the Data/Map/GC split."""

    DATA = "data"       # user payload I/O
    MAP = "map"         # mapping-table page I/O (CMT miss/evict)
    GC = "gc"           # valid-page migration during garbage collection
    AGING = "aging"     # device pre-conditioning (excluded from results)


@dataclass
class FlashOpCounters:
    """Mutable tally of every flash and DRAM operation in a run."""

    reads: dict[OpKind, int] = field(
        default_factory=lambda: {k: 0 for k in OpKind}
    )
    writes: dict[OpKind, int] = field(
        default_factory=lambda: {k: 0 for k in OpKind}
    )
    erases: int = 0
    aging_erases: int = 0
    #: DRAM mapping-structure accesses (Fig. 12b).
    dram_accesses: int = 0
    #: Write-buffer hits that avoided a flash read.
    cache_hits: int = 0
    #: Flash reads performed only to complete a read-modify-write of a
    #: partial page update (the update-induced reads of §4.2.2).
    update_reads: int = 0
    #: Flash reads performed by Across-FTL merged reads (§4.2.1).
    merged_reads: int = 0
    #: GC passes that found no victim able to free a block — the plane
    #: is starved and a later allocation will fail; surfaced so runs
    #: show the stall where it happens rather than dying downstream.
    gc_stalls: int = 0
    # -- media reliability (repro.faults; all zero when disabled) -------
    #: read-retry steps walked because raw bit errors exceeded the ECC
    #: budget (each step also cost chip time).
    read_retries: int = 0
    #: reads whose errors survived the whole retry table (the read
    #: still returns its data).
    uncorrectable_reads: int = 0
    #: program-status failures absorbed by in-place reprogram attempts.
    program_fails: int = 0
    #: erase-status failures (each retires the block on the spot).
    erase_fails: int = 0
    #: blocks retired as bad (lost over-provisioning).
    bad_blocks: int = 0
    #: valid pages relocated off blocks headed for retirement (the
    #: bad-block remapping traffic, also counted under OpKind.GC).
    fault_relocations: int = 0
    # -- GC policy zoo (all zero under the default greedy policy) --------
    #: bounded collection slices run by a partial GC policy.
    gc_slices: int = 0
    #: partial-GC slices that left the victim un-erased (valid pages
    #: deferred to a later slice — the request-aware deferral of
    #: preemptive GC).
    gc_deferrals: int = 0
    #: running totals of measured (non-aging) ops, kept in lock-step
    #: with the per-kind dicts so :attr:`total_reads`/:attr:`total_writes`
    #: are O(1) — the engine consults them on every request.
    _measured_reads: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _measured_writes: int = field(
        default=0, init=False, repr=False, compare=False
    )

    # -- increments ------------------------------------------------------
    def count_read(self, kind: OpKind, n: int = 1) -> None:
        """Tally ``n`` flash page reads of the given kind."""
        self.reads[kind] += n
        if kind is not OpKind.AGING:
            self._measured_reads += n

    def count_write(self, kind: OpKind, n: int = 1) -> None:
        """Tally ``n`` flash page programs of the given kind."""
        self.writes[kind] += n
        if kind is not OpKind.AGING:
            self._measured_writes += n

    def count_erase(self, aging: bool = False) -> None:
        """Tally one block erase (aging erases are kept separate)."""
        if aging:
            self.aging_erases += 1
        else:
            self.erases += 1

    def count_dram(self, n: int = 1) -> None:
        """Tally ``n`` DRAM mapping-structure touches (Fig. 12b)."""
        self.dram_accesses += n

    # -- aggregates ------------------------------------------------------
    @property
    def data_reads(self) -> int:
        return self.reads[OpKind.DATA]

    @property
    def data_writes(self) -> int:
        return self.writes[OpKind.DATA]

    @property
    def map_reads(self) -> int:
        return self.reads[OpKind.MAP]

    @property
    def map_writes(self) -> int:
        return self.writes[OpKind.MAP]

    @property
    def gc_reads(self) -> int:
        return self.reads[OpKind.GC]

    @property
    def gc_writes(self) -> int:
        return self.writes[OpKind.GC]

    def _retally(self) -> None:
        """Resync the running totals after direct dict assignment."""
        self._measured_reads = sum(
            v for k, v in self.reads.items() if k is not OpKind.AGING
        )
        self._measured_writes = sum(
            v for k, v in self.writes.items() if k is not OpKind.AGING
        )

    @property
    def total_reads(self) -> int:
        """All measured flash reads (aging excluded)."""
        return self._measured_reads

    @property
    def total_writes(self) -> int:
        """All measured flash writes (aging excluded)."""
        return self._measured_writes

    def map_write_share(self) -> float:
        """Fraction of flash writes that are mapping-table writes
        (paper reports 36.9% for MRSM, 2.6% for Across-FTL)."""
        t = self.total_writes
        return self.map_writes / t if t else 0.0

    def map_read_share(self) -> float:
        """Fraction of flash reads that are mapping-table reads
        (paper reports 34.4% for MRSM, 0.74% for Across-FTL)."""
        t = self.total_reads
        return self.map_reads / t if t else 0.0

    def snapshot(self) -> dict:
        """Plain-dict copy for reports / JSON.

        The per-kind splits (``reads_by_kind``/``writes_by_kind``) carry
        the full counter state, so :meth:`from_snapshot` can rebuild an
        equal instance; the flat aggregates stay for readability and
        backward compatibility of archived sweeps.  Policy-zoo tallies
        (``gc_slices``/``gc_deferrals``) appear only
        when nonzero: the default greedy policy never touches them, and
        omitting the keys keeps default-run report digests byte-stable.
        """
        out = {
            "data_reads": self.data_reads,
            "data_writes": self.data_writes,
            "map_reads": self.map_reads,
            "map_writes": self.map_writes,
            "gc_reads": self.gc_reads,
            "gc_writes": self.gc_writes,
            "total_reads": self.total_reads,
            "total_writes": self.total_writes,
            "erases": self.erases,
            "dram_accesses": self.dram_accesses,
            "cache_hits": self.cache_hits,
            "update_reads": self.update_reads,
            "merged_reads": self.merged_reads,
            "gc_stalls": self.gc_stalls,
            "read_retries": self.read_retries,
            "uncorrectable_reads": self.uncorrectable_reads,
            "program_fails": self.program_fails,
            "erase_fails": self.erase_fails,
            "bad_blocks": self.bad_blocks,
            "fault_relocations": self.fault_relocations,
            "aging_erases": self.aging_erases,
            "reads_by_kind": {k.value: v for k, v in self.reads.items()},
            "writes_by_kind": {k.value: v for k, v in self.writes.items()},
        }
        if self.gc_slices:
            out["gc_slices"] = self.gc_slices
        if self.gc_deferrals:
            out["gc_deferrals"] = self.gc_deferrals
        return out

    @classmethod
    def from_snapshot(cls, d: dict) -> "FlashOpCounters":
        """Rebuild counters from a :meth:`snapshot` dict (round trip)."""
        out = cls()
        by_read = d.get("reads_by_kind")
        by_write = d.get("writes_by_kind")
        if by_read is not None and by_write is not None:
            out.reads = {k: int(by_read.get(k.value, 0)) for k in OpKind}
            out.writes = {k: int(by_write.get(k.value, 0)) for k in OpKind}
        else:  # legacy archive without the per-kind splits
            out.reads[OpKind.DATA] = int(d.get("data_reads", 0))
            out.reads[OpKind.MAP] = int(d.get("map_reads", 0))
            out.reads[OpKind.GC] = int(d.get("gc_reads", 0))
            out.writes[OpKind.DATA] = int(d.get("data_writes", 0))
            out.writes[OpKind.MAP] = int(d.get("map_writes", 0))
            out.writes[OpKind.GC] = int(d.get("gc_writes", 0))
        out._retally()
        out.erases = int(d.get("erases", 0))
        out.aging_erases = int(d.get("aging_erases", 0))
        out.dram_accesses = int(d.get("dram_accesses", 0))
        out.cache_hits = int(d.get("cache_hits", 0))
        out.update_reads = int(d.get("update_reads", 0))
        out.merged_reads = int(d.get("merged_reads", 0))
        out.gc_stalls = int(d.get("gc_stalls", 0))
        out.read_retries = int(d.get("read_retries", 0))
        out.uncorrectable_reads = int(d.get("uncorrectable_reads", 0))
        out.program_fails = int(d.get("program_fails", 0))
        out.erase_fails = int(d.get("erase_fails", 0))
        out.bad_blocks = int(d.get("bad_blocks", 0))
        out.fault_relocations = int(d.get("fault_relocations", 0))
        out.gc_slices = int(d.get("gc_slices", 0))
        out.gc_deferrals = int(d.get("gc_deferrals", 0))
        return out

    def load_state(self, d: dict) -> None:
        """Overwrite this instance with a :meth:`snapshot`, in place:
        the FTL and the mapping caches hold this object and its
        per-kind dicts by reference."""
        src = FlashOpCounters.from_snapshot(d)
        for f in fields(self):
            value = getattr(src, f.name)
            if isinstance(value, dict):
                getattr(self, f.name).update(value)
            else:
                setattr(self, f.name, value)

    def merged_with(self, other: "FlashOpCounters") -> "FlashOpCounters":
        """Element-wise sum (used when aggregating multi-trace runs)."""
        out = FlashOpCounters()
        for k in OpKind:
            out.reads[k] = self.reads[k] + other.reads[k]
            out.writes[k] = self.writes[k] + other.writes[k]
        out._retally()
        out.erases = self.erases + other.erases
        out.aging_erases = self.aging_erases + other.aging_erases
        out.dram_accesses = self.dram_accesses + other.dram_accesses
        out.cache_hits = self.cache_hits + other.cache_hits
        out.update_reads = self.update_reads + other.update_reads
        out.merged_reads = self.merged_reads + other.merged_reads
        out.gc_stalls = self.gc_stalls + other.gc_stalls
        out.read_retries = self.read_retries + other.read_retries
        out.uncorrectable_reads = (
            self.uncorrectable_reads + other.uncorrectable_reads
        )
        out.program_fails = self.program_fails + other.program_fails
        out.erase_fails = self.erase_fails + other.erase_fails
        out.bad_blocks = self.bad_blocks + other.bad_blocks
        out.fault_relocations = (
            self.fault_relocations + other.fault_relocations
        )
        out.gc_slices = self.gc_slices + other.gc_slices
        out.gc_deferrals = self.gc_deferrals + other.gc_deferrals
        return out
