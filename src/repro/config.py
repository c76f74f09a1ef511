"""Validated configuration objects and paper presets.

:class:`SSDConfig` captures everything Table 1 of the paper specifies
(geometry, TLC timing, GC threshold, DRAM cache) plus the knobs the
evaluation sweeps (page size, Fig. 13/14).  Presets:

* :func:`SSDConfig.paper_table1` — the full 128 GiB device of Table 1.
* :func:`SSDConfig.bench_default` — the same device scaled down (fewer
  blocks per plane) so a pure-Python sweep over six traces and three
  schemes completes in minutes.  All reported metrics are normalised
  ratios, which are stable under this scaling (see DESIGN.md §2).
* :func:`SSDConfig.tiny` — a deliberately small device for unit tests,
  sized so GC triggers after a few hundred page writes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .units import GIB, KIB, MIB, sectors_per_page

#: Registered GC scheduling policies (:mod:`repro.ftl.gc_policy`);
#: every one collects greedy's victim (fewest valid pages):
#:
#: * ``greedy`` — the classic threshold / restore loop (the paper's /
#:   SSDsim's default);
#: * ``preemptive`` — partial GC in bounded slices between host
#:   requests, starting early at a soft threshold and deferring the
#:   rest while the plane stays healthy (arXiv 1807.09313);
#: * ``hot_cold`` — hot/cold write-stream separation (user and GC
#:   traffic fill distinct active blocks).
#:
#: Each policy's tuning values are class constants in
#: :mod:`repro.ftl.gc_policy`.
GC_POLICIES = ("greedy", "preemptive", "hot_cold")


@dataclass(frozen=True)
class TimingConfig:
    """Flash and controller operation latencies, in milliseconds.

    Defaults follow Table 1 (TLC cell): page read 0.075 ms, page program
    2 ms, DRAM/cache access 0.001 ms.  The paper does not list the erase
    latency; 3.5 ms is the customary SSDsim TLC figure and only shifts
    absolute I/O time, never the normalised comparisons.
    """

    read_ms: float = 0.075
    program_ms: float = 2.0
    erase_ms: float = 3.5
    cache_access_ms: float = 0.001
    #: Per read-retry *step* cost (repro.faults): a page whose raw bit
    #: errors exceed the ECC budget is re-read with shifted thresholds;
    #: step ``k`` (1-based) occupies the chip for ``read_retry_ms * k``
    #: on top of the base read, so deep retries escalate like real
    #: NAND retry tables.
    read_retry_ms: float = 0.05
    #: Channel-bus transfer time per page (SSDsim models the data
    #: transfer separately from the cell operation; ~20 us for 8 KiB at
    #: 400 MB/s).  0 disables bus contention — the default, since the
    #: cell operations dominate by 100x; enable for bus-bound studies.
    transfer_ms: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any non-physical latency."""
        for name in ("read_ms", "program_ms", "erase_ms", "cache_access_ms"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"timing.{name} must be positive")
        if self.transfer_ms < 0:
            raise ConfigError("timing.transfer_ms must be non-negative")
        if self.read_retry_ms < 0:
            raise ConfigError("timing.read_retry_ms must be non-negative")


@dataclass(frozen=True)
class SSDConfig:
    """Full device configuration: geometry, timing, GC, caches."""

    channels: int = 8
    chips_per_channel: int = 4
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    pages_per_block: int = 64
    page_size_bytes: int = 8 * KIB

    #: GC starts in a plane when its free-block fraction drops below this.
    gc_threshold: float = 0.10
    #: GC stops once the free fraction is back above this (hysteresis).
    gc_restore: float = 0.12
    #: GC policy: victim selection plus trigger/budget scheduling (see
    #: :data:`GC_POLICIES` and :mod:`repro.ftl.gc_policy`)
    gc_policy: str = "greedy"
    #: Fraction of logical space exported to the host; the rest is
    #: over-provisioning the FTL can burn during GC.
    op_ratio: float = 0.125

    timing: TimingConfig = field(default_factory=TimingConfig)

    #: DRAM write-buffer capacity in bytes (Table 1 "cache").  ``0``
    #: disables the buffer.
    write_buffer_bytes: int = 16 * MIB
    #: DRAM budget for cached mapping entries, in entries.  ``None``
    #: means the whole table of the *baseline* page-map FTL fits; larger
    #: tables (MRSM, AMT spill) then overflow to flash proportionally.
    mapping_cache_entries: int | None = None

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    @property
    def sectors_per_page(self) -> int:
        return sectors_per_page(self.page_size_bytes)

    @property
    def num_planes(self) -> int:
        return (
            self.channels
            * self.chips_per_channel
            * self.dies_per_chip
            * self.planes_per_die
        )

    @property
    def num_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def num_blocks(self) -> int:
        return self.num_planes * self.blocks_per_plane

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def num_pages(self) -> int:
        return self.num_blocks * self.pages_per_block

    @property
    def physical_bytes(self) -> int:
        return self.num_pages * self.page_size_bytes

    @property
    def logical_pages(self) -> int:
        """Number of LPNs exported to the host (after over-provisioning)."""
        return int(self.num_pages * (1.0 - self.op_ratio))

    @property
    def logical_sectors(self) -> int:
        return self.logical_pages * self.sectors_per_page

    @property
    def logical_bytes(self) -> int:
        return self.logical_pages * self.page_size_bytes

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` on any inconsistent setting."""
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.page_size_bytes % 512 != 0 or self.page_size_bytes <= 0:
            raise ConfigError(
                f"page_size_bytes must be a positive multiple of 512, "
                f"got {self.page_size_bytes}"
            )
        if not (0.0 < self.gc_threshold < 1.0):
            raise ConfigError("gc_threshold must be in (0, 1)")
        if not (self.gc_threshold <= self.gc_restore < 1.0):
            raise ConfigError("gc_restore must be in [gc_threshold, 1)")
        if not (0.0 < self.op_ratio < 1.0):
            raise ConfigError("op_ratio must be in (0, 1)")
        if self.gc_policy not in GC_POLICIES:
            raise ConfigError(f"unknown gc_policy {self.gc_policy!r}")
        if self.blocks_per_plane < 4:
            raise ConfigError("need at least 4 blocks per plane for GC headroom")
        if self.write_buffer_bytes < 0:
            raise ConfigError("write_buffer_bytes must be non-negative")
        if self.mapping_cache_entries is not None and self.mapping_cache_entries <= 0:
            raise ConfigError("mapping_cache_entries must be positive or None")
        self.timing.validate()

    def with_page_size(self, page_size_bytes: int) -> "SSDConfig":
        """Return a copy with a different page size, keeping capacity by
        scaling pages per block (Fig. 13/14 sweep helper)."""
        factor = self.page_size_bytes / page_size_bytes
        ppb = max(4, int(round(self.pages_per_block * factor)))
        cfg = replace(self, page_size_bytes=page_size_bytes, pages_per_block=ppb)
        cfg.validate()
        return cfg

    def replace(self, **kw) -> "SSDConfig":
        """Copy with keyword overrides (validated)."""
        cfg = replace(self, **kw)
        cfg.validate()
        return cfg

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_table1(cls) -> "SSDConfig":
        """The exact Table 1 device: 262144 blocks x 64 pages x 8 KiB = 128 GiB."""
        cfg = cls(
            channels=8,
            chips_per_channel=4,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=2048,
            pages_per_block=64,
            page_size_bytes=8 * KIB,
        )
        cfg.validate()
        assert cfg.num_blocks == 262144
        assert cfg.physical_bytes == 128 * GIB
        return cfg

    @classmethod
    def bench_default(cls) -> "SSDConfig":
        """A 2 GiB device (64x fewer blocks than Table 1) used by the
        benchmark harness together with proportionally scaled traces.

        The channel/chip/die/plane fan-out matches Table 1's device
        (8 x 4 x 2 x 2 = 32 chips), so request-level parallelism and
        queueing behave like the paper's; only blocks per plane shrink,
        and every reported figure is a normalised ratio, which is
        scale-stable.
        """
        cfg = cls(
            channels=8,
            chips_per_channel=4,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=32,
            pages_per_block=64,
            page_size_bytes=8 * KIB,
            write_buffer_bytes=16 * MIB,
        )
        cfg.validate()
        return cfg

    @classmethod
    def tiny(cls) -> "SSDConfig":
        """A small device for unit tests: 4 chips, 512 blocks, 16 pages/block."""
        cfg = cls(
            channels=2,
            chips_per_channel=2,
            dies_per_chip=1,
            planes_per_die=2,
            blocks_per_plane=64,
            pages_per_block=16,
            page_size_bytes=8 * KIB,
            write_buffer_bytes=0,
        )
        cfg.validate()
        return cfg

    #: names accepted by :meth:`preset` (wire-facing: ``repro serve``
    #: requests pick their device by one of these strings)
    PRESETS = ("tiny", "bench", "table1")

    @classmethod
    def preset(cls, name: str) -> "SSDConfig":
        """Look up a device preset by name: ``tiny``
        (:meth:`tiny`), ``bench`` (:meth:`bench_default`) or
        ``table1`` (:meth:`paper_table1`)."""
        try:
            return {
                "tiny": cls.tiny,
                "bench": cls.bench_default,
                "table1": cls.paper_table1,
            }[name]()
        except KeyError:
            raise ConfigError(
                f"unknown device preset {name!r}; choose from {cls.PRESETS}"
            ) from None

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        return (
            f"SSD: {self.channels}ch x {self.chips_per_channel}chip x "
            f"{self.dies_per_chip}die x {self.planes_per_die}plane, "
            f"{self.blocks_per_plane} blocks/plane, "
            f"{self.pages_per_block} pages/block, "
            f"{self.page_size_bytes // 1024} KiB pages -> "
            f"{self.physical_bytes / GIB:.1f} GiB physical, "
            f"{self.logical_bytes / GIB:.1f} GiB logical, "
            f"GC at {self.gc_threshold:.0%} free"
        )


@dataclass(frozen=True)
class ObservabilityConfig:
    """Instrumentation options (the :mod:`repro.obs` subsystem).

    All off by default: a normal run pays one branch per instrumented
    hot-path hook and allocates nothing.  ``enabled`` turns on the
    event bus; ``trace`` additionally records per-request spans
    (exportable as Chrome-trace JSON / JSONL); a positive
    ``sample_interval_ms`` collects chip-utilisation, queue-depth,
    free-block and AMT-occupancy time series on that simulated-time
    tick.
    """

    #: master switch: build the event bus and wire the hooks
    enabled: bool = False
    #: record per-request spans (needs ``enabled``)
    trace: bool = False
    #: simulated-time sampling tick in ms, 0 = no sampling
    #: (needs ``enabled``)
    sample_interval_ms: float = 0.0
    #: per-request critical-path latency attribution + per-phase
    #: tail-latency sketches (:mod:`repro.obs.attribution`); needs
    #: ``enabled``
    attribution: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        if self.sample_interval_ms < 0:
            raise ConfigError("sample_interval_ms must be non-negative")
        if not self.enabled and (
            self.trace or self.sample_interval_ms > 0 or self.attribution
        ):
            raise ConfigError(
                "observability.trace / sample_interval_ms / attribution "
                "require observability.enabled"
            )

    @classmethod
    def full(cls, sample_interval_ms: float = 10.0) -> "ObservabilityConfig":
        """Everything on: bus + spans + samplers + attribution
        (``repro trace`` uses this)."""
        return cls(
            enabled=True,
            trace=True,
            sample_interval_ms=sample_interval_ms,
            attribution=True,
        )


@dataclass(frozen=True)
class FaultConfig:
    """Media-reliability / fault-injection options (:mod:`repro.faults`).

    Off by default: the injection points in
    :class:`~repro.flash.service.FlashService` hold a ``faults``
    reference that stays ``None`` unless ``enabled`` is set, so a
    normal run pays one branch per flash operation and allocates
    nothing (the ``observability`` pattern).

    The model is deterministic and seed-driven: one dedicated RNG
    stream (``seed``) is consumed in flash-op order, so the same trace,
    device and fault config always produce bit-identical reports —
    including across ``--jobs`` process fan-out, where every run owns a
    fresh injector.

    Raw bit-error rate grows with per-block P/E cycles (the
    :class:`~repro.flash.array.FlashArray` erase counters) and with
    retention age::

        rber = rber_base
               * (1 + pe / pe_cycle_scale) ** pe_exponent
               * (1 + age_ms / retention_scale_ms)

    A read draws ``Poisson(rber * page_bits)`` raw errors; anything
    beyond ``ecc_bits`` triggers escalating read-retry steps (each step
    recovers a ``retry_error_factor`` fraction of the errors and costs
    ``timing.read_retry_ms * step``); errors surviving
    ``max_read_retries`` are *uncorrectable* (counted; the read still
    returns its simulated data).
    Programs and erases fail with wear-scaled probabilities; a block
    accumulating ``retire_after_program_fails`` program failures — or
    failing an erase — is retired: its valid pages (including
    across-page areas) are relocated by GC and the block leaves the
    free pool for good, shrinking over-provisioning.
    """

    #: master switch: build the injector and wire the flash hooks
    enabled: bool = False
    #: dedicated fault-stream seed (independent of ``SimConfig.seed``
    #: so fault draws never perturb workload/aging randomness)
    seed: int = 7

    # -- raw bit-error-rate model --------------------------------------
    #: RBER of a fresh block reading freshly-written data
    rber_base: float = 1e-5
    #: P/E cycles at which wear doubles the base term
    pe_cycle_scale: float = 500.0
    #: super-linear wear exponent (TLC-like RBER growth)
    pe_exponent: float = 2.0
    #: retention age (simulated ms) at which charge leak doubles RBER
    retention_scale_ms: float = 1e6

    # -- ECC / read retry ----------------------------------------------
    #: correctable raw bit errors per page (the ECC budget)
    ecc_bits: int = 64
    #: fraction of raw errors *surviving* each retry step
    retry_error_factor: float = 0.5
    #: retry-table depth before a read is declared uncorrectable
    max_read_retries: int = 5

    # -- program / erase failures --------------------------------------
    #: per-program failure probability on a fresh block
    program_fail_prob: float = 1e-5
    #: per-erase failure probability on a fresh block
    erase_fail_prob: float = 1e-4
    #: in-place reprogram attempts charged before a program sticks
    max_program_retries: int = 3
    #: program failures a block survives before it is retired
    retire_after_program_fails: int = 4

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any non-physical setting."""
        for name in ("rber_base", "pe_cycle_scale", "retention_scale_ms"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"faults.{name} must be positive")
        if self.pe_exponent < 0:
            raise ConfigError("faults.pe_exponent must be non-negative")
        if self.ecc_bits < 0:
            raise ConfigError("faults.ecc_bits must be non-negative")
        if not (0.0 <= self.retry_error_factor < 1.0):
            raise ConfigError("faults.retry_error_factor must be in [0, 1)")
        if self.max_read_retries < 0 or self.max_program_retries < 0:
            raise ConfigError("faults retry depths must be non-negative")
        for name in ("program_fail_prob", "erase_fail_prob"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ConfigError(f"faults.{name} must be in [0, 1]")
        if self.retire_after_program_fails <= 0:
            raise ConfigError(
                "faults.retire_after_program_fails must be positive"
            )

    @classmethod
    def stress(cls, seed: int = 7) -> "FaultConfig":
        """An aggressive preset that makes every fault class visible on
        bench/test-scale devices within a few thousand requests (the
        ``repro faults`` sweep base and the reliability example)."""
        return cls(
            enabled=True,
            seed=seed,
            # an 8 KiB page carries 65536 bits: lambda = 65536 * 1e-3
            # ~ 66 raw errors per read, just past the 48-bit ECC budget
            # even on unworn blocks, so read retries show up immediately
            rber_base=1e-3,
            pe_cycle_scale=50.0,
            ecc_bits=48,
            program_fail_prob=5e-3,
            erase_fail_prob=2e-2,
            retire_after_program_fails=2,
        )

    def scaled(self, intensity: float) -> "FaultConfig":
        """Copy with error rates multiplied by ``intensity`` (enabled
        when ``intensity > 0``; 0 returns a disabled config) — the
        ``repro faults`` sweep axis."""
        if intensity < 0:
            raise ConfigError("fault intensity must be non-negative")
        if intensity == 0:
            return FaultConfig()
        cfg = replace(
            self,
            enabled=True,
            rber_base=self.rber_base * intensity,
            program_fail_prob=min(1.0, self.program_fail_prob * intensity),
            erase_fail_prob=min(1.0, self.erase_fail_prob * intensity),
        )
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class FrontendConfig:
    """Event-driven frontend options (:mod:`repro.sim.frontend`).

    Off by default: the engine replays the trace through the
    sequential loop (bit-identical to every pinned golden/bench
    digest).  When ``enabled``, :meth:`repro.sim.engine.Simulator.run`
    instead drives a discrete-event loop
    (:meth:`~repro.sim.engine.Simulator._run_frontend`): requests
    *arrive*, wait in a frontend queue until they are free of
    LBA-overlap RAW/WAW/WAR hazards against every in-flight request,
    *issue* through per-chip command schedulers
    (:mod:`repro.sim.nand_sched`) and *complete* when the synchronous
    timing model says so.  Reads that fully hit the DRAM
    data cache are served without occupying a NAND queue slot, and
    TRIMs complete at DRAM speed outside the NAND queue.
    """

    #: master switch: replay through the discrete-event frontend
    enabled: bool = False
    #: how many waiting requests each dispatch scan may look past the
    #: queue head (out-of-order admission window; 1 = strict FIFO)
    window: int = 64
    #: reorder queued chip commands read-first (reads are latency-
    #: critical; programs are 26x longer and can wait)
    read_priority: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        if self.window <= 0:
            raise ConfigError("frontend.window must be positive")


@dataclass(frozen=True)
class BatchConfig:
    """Accepted-and-ignored leftover of the batch on/off switch.

    There is one sequential replay loop and one aging path;
    nothing selects between variants any more.  ``enabled`` survives
    only so callers written against the switch — the frozen
    ``benchmarks/e2e`` driver, saved ``repro check`` reproducers — still
    construct.  It selects nothing, no CLI flag reaches it, and it goes
    when the benchmark is next re-cut.
    """

    #: inert; any value yields the same run
    enabled: bool = False


@dataclass(frozen=True)
class CheckConfig:
    """Runtime invariant-checking options (:mod:`repro.check`).

    Off by default: the engine holds a ``checker`` reference that stays
    ``None`` unless ``enabled`` is set, so a normal run pays one branch
    per request and allocates nothing (the ``observability`` /
    ``faults`` pattern).  When enabled, a full cross-layer sweep —
    mapping tables vs. flash state, free-pool and write-pointer
    conservation, chip-timeline monotonicity, counter conservation
    laws — runs every ``every`` serviced requests and once more at end
    of run; any disagreement raises
    :class:`~repro.errors.InvariantViolation` naming both sides.
    """

    #: master switch: build the checker and wire the engine hooks
    enabled: bool = False
    #: run a full sweep every N serviced requests (0 = only the
    #: unconditional end-of-run sweep; needs ``enabled``)
    every: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        if self.every < 0:
            raise ConfigError("check.every must be non-negative")
        if self.every > 0 and not self.enabled:
            raise ConfigError("check.every requires check.enabled")

    @classmethod
    def full(cls, every: int = 256) -> "CheckConfig":
        """Checking on, sweeping every ``every`` requests (the
        ``repro check`` default)."""
        return cls(enabled=True, every=every)


@dataclass(frozen=True)
class SimConfig:
    """Simulation-run options shared by all schemes."""

    #: Age the device before the measured run: fill until ``aged_used``
    #: of physical capacity has been programmed, with ``aged_valid`` of
    #: capacity still valid afterwards (paper §4.1: 90% used, 39.8% valid).
    aged_used: float = 0.0
    aged_valid: float = 0.0
    #: How to age: "aligned" fills with page-aligned writes (fast,
    #: deterministic valid fraction); "vdi" replays a synthetic VDI
    #: write stream like the paper's warm-up trace
    #: (additional-02...LUN6), which also pre-fragments sub-page mapping
    #: tables and seeds across-page areas.  With "vdi" the valid
    #: fraction is emergent.
    aging_style: str = "aligned"
    #: Seed for any randomness inside the run (aging fill pattern).
    seed: int = 42
    #: When True the engine keeps a sector-version oracle and verifies
    #: every read against it (tests); costs memory and time.
    check_oracle: bool = False
    #: Collect per-request latency samples (needed for latency metrics).
    record_latencies: bool = True
    #: Keep a full per-request event log (time, op, class, latency,
    #: induced flushes) for tail-latency analysis; costs memory.
    record_requests: bool = False
    #: Append end-of-run wear statistics (per-block erase distribution:
    #: mean/std/max/Gini, :mod:`repro.flash.wear`) to ``report.extra``.
    #: Off by default so existing report digests stay byte-identical;
    #: the ``repro endure`` sweeps turn it on.
    record_wear: bool = False
    #: Take a counter snapshot every N requests (0 = off): feeds the
    #: metric-over-time series of repro.metrics.series.
    snapshot_every: int = 0
    #: Host queue depth (NCQ): at most this many requests outstanding;
    #: later arrivals wait in the host queue (their latency includes the
    #: wait).  None = unlimited (the default, matching SSDsim replay).
    queue_depth: int | None = None
    #: Per-stream QoS boundaries (strictly increasing sector offsets).
    #: When non-empty the LBA space is split into ``len+1`` streams —
    #: stream *i* covers ``[boundaries[i-1], boundaries[i])`` — and the
    #: report gains a ``streams`` section with per-stream request
    #: counts and latency sketches.  The fleet layer
    #: (:mod:`repro.fleet`) uses this to recover per-tenant QoS from a
    #: single shard run.  Empty (the default) keeps report digests
    #: byte-identical to runs that never had the feature.
    qos_streams: tuple[int, ...] = ()
    #: Instrumentation (event bus / spans / samplers); off by default.
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    #: Media-fault injection (:mod:`repro.faults`); off by default.
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Runtime invariant checking (:mod:`repro.check`); off by default.
    check: CheckConfig = field(default_factory=CheckConfig)
    #: Event-driven frontend (:mod:`repro.sim.frontend`); off by
    #: default — the sequential replay loop stays bit-identical.
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    #: Inert (see :class:`BatchConfig`).
    batch: BatchConfig = field(default_factory=BatchConfig)
    #: Print a throttled progress line (requests/s, % done, ETA) to
    #: stderr during the replay loop (``--progress`` on the CLI).
    progress: bool = False

    def __post_init__(self) -> None:
        # JSON round trips (shrink reproducers, serve requests) hand the
        # boundaries back as a list; normalise so equality and hashing
        # behave regardless of the source.
        object.__setattr__(self, "qos_streams", tuple(self.qos_streams))

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent run options."""
        if not (0.0 <= self.aged_used <= 0.98):
            raise ConfigError("aged_used must be in [0, 0.98]")
        if not (0.0 <= self.aged_valid <= self.aged_used or self.aged_used == 0.0):
            raise ConfigError("aged_valid must be in [0, aged_used]")
        if self.aging_style not in ("aligned", "vdi"):
            raise ConfigError(f"unknown aging_style {self.aging_style!r}")
        if self.queue_depth is not None and self.queue_depth <= 0:
            raise ConfigError("queue_depth must be positive or None")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be non-negative")
        prev = 0
        for b in self.qos_streams:
            if not isinstance(b, int) or b <= prev:
                raise ConfigError(
                    "qos_streams must be strictly increasing positive "
                    f"sector offsets, got {self.qos_streams!r}"
                )
            prev = b
        self.observability.validate()
        self.faults.validate()
        self.check.validate()
        self.frontend.validate()

    @classmethod
    def paper_aging(cls, **kw) -> "SimConfig":
        """Paper §4.1 aging: 90% of capacity used, 39.8% valid."""
        return cls(aged_used=0.90, aged_valid=0.398, **kw)

    def replace_observability(self, **kw) -> "SimConfig":
        """Copy with observability-field overrides (validated)."""
        obs = dataclasses.replace(self.observability, **kw)
        cfg = replace(self, observability=obs)
        cfg.validate()
        return cfg

    def replace_faults(self, **kw) -> "SimConfig":
        """Copy with fault-field overrides (validated)."""
        faults = dataclasses.replace(self.faults, **kw)
        cfg = replace(self, faults=faults)
        cfg.validate()
        return cfg

    def replace_check(self, **kw) -> "SimConfig":
        """Copy with invariant-checking overrides (validated)."""
        check = dataclasses.replace(self.check, **kw)
        cfg = replace(self, check=check)
        cfg.validate()
        return cfg

    def replace_frontend(self, **kw) -> "SimConfig":
        """Copy with frontend-field overrides (validated)."""
        frontend = dataclasses.replace(self.frontend, **kw)
        cfg = replace(self, frontend=frontend)
        cfg.validate()
        return cfg

    def replace_batch(self, **kw) -> "SimConfig":
        """Copy with the inert :class:`BatchConfig` block replaced."""
        return replace(self, batch=dataclasses.replace(self.batch, **kw))


SCHEMES = ("ftl", "mrsm", "across")
"""Canonical identifiers of the three compared FTL schemes."""
