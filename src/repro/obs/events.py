"""Typed simulation events and the near-zero-overhead event bus.

Every layer of the simulator can publish structured events describing
what it just did — request lifecycle, FTL path decisions, flash
commands, GC activity, mapping-cache behaviour — and any number of
consumers (the span recorder of :mod:`.trace`, the samplers of
:mod:`.samplers`, ad-hoc analysis callbacks) subscribe to the ones they
care about.

The bus is **disabled by default** and costs the hot paths exactly one
attribute load and one branch when off: instrumented components hold an
``obs`` reference that is ``None`` unless observability was requested
(``SimConfig.observability.enabled``), so the instrumentation pattern
everywhere is::

    obs = self.obs              # or self.service.obs
    if obs is not None:
        obs.emit(FlashOp(...))

Event timestamps are *simulated* milliseconds (the same clock the
engine and chip timelines use).  Components that have no clock of their
own (the write buffer) stamp events with :attr:`EventBus.now`, which
the engine advances once per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


# ----------------------------------------------------------------------
# event types
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Event:
    """Base class: every event carries its simulated time in ms."""

    t: float


@dataclass(frozen=True, slots=True)
class RequestArrive(Event):
    """A host request entered the device."""

    rid: int
    op: int          # traces.model OP_READ / OP_WRITE / OP_TRIM
    offset: int      # sectors
    size: int        # sectors
    across: bool     # paper's across-page request class


@dataclass(frozen=True, slots=True)
class RequestComplete(Event):
    """A host request finished (t is the completion time)."""

    rid: int
    latency: float   # ms, counted from arrival


@dataclass(frozen=True, slots=True)
class RequestPhases(Event):
    """Critical-path latency attribution of a completed request.

    Emitted just before :class:`RequestComplete` when
    ``SimConfig.observability.attribution`` is on.  ``phases`` is a
    tuple of ``(phase name, milliseconds)`` pairs (sorted by name) from
    the :data:`repro.obs.attribution.PHASES` vocabulary; the values sum
    to the request latency (the conservation law
    :meth:`repro.check.invariants.InvariantChecker.check_attribution`
    enforces).
    """

    rid: int
    phases: tuple


@dataclass(frozen=True, slots=True)
class HazardStall(Event):
    """The event-driven frontend held a request back behind an
    LBA-overlap hazard (:mod:`repro.sim.frontend`).

    Emitted once per stalled request, at the first dispatch scan that
    found it blocked; ``blocker`` is the rid of the conflicting
    waiting/in-flight request it must order behind.  ``kind`` names the
    hazard class: ``raw`` (read-after-write), ``waw``
    (write-after-write) or ``war`` (write-after-read); TRIMs count as
    writes.
    """

    rid: int
    blocker: int
    kind: str


@dataclass(frozen=True, slots=True)
class BufferLookup(Event):
    """Write-buffer (DRAM data cache) read lookup: hit or miss."""

    rid: int
    hit: bool


@dataclass(frozen=True, slots=True)
class BufferEvict(Event):
    """The write buffer evicted an LPN (LRU overflow)."""

    lpn: int


@dataclass(frozen=True, slots=True)
class FTLDecision(Event):
    """Which servicing path the FTL chose for (a piece of) a request.

    ``path`` is one of the :data:`DECISION_PATHS` identifiers: the
    across-page vocabulary of paper §3.3 (``direct`` / ``amerge`` /
    ``arollback`` / ``direct_read`` / ``merged_read``) plus the baseline
    page-mapped paths (``page_write`` / ``rmw`` / ``page_read``).
    """

    rid: int
    path: str
    lpn: int


#: the closed vocabulary of FTLDecision.path
DECISION_PATHS = (
    "direct",        # across-page write re-aligned onto a fresh page
    "amerge",        # overlapping update merged into the live area
    "arollback",     # area folded back into the normal pages
    "direct_read",   # read served entirely from across areas
    "merged_read",   # read combined area + normal pages
    "page_write",    # plain page-mapped write, no old data retained
    "rmw",           # page-mapped write that read-modify-wrote
    "page_read",     # plain page-mapped read
)


@dataclass(frozen=True, slots=True)
class FlashOp(Event):
    """One flash command: issue time is ``t``, completion is ``finish``.

    Covers both ends of the command lifecycle in a single event because
    the timing model resolves the completion synchronously at issue.
    ``rid`` attributes the command to the host request being serviced
    (-1 when none, e.g. end-of-run metadata flush).
    """

    rid: int
    op: str          # "read" | "program" | "erase"
    kind: str        # OpKind value: data / map / gc / aging
    chip: int
    finish: float    # ms; == t for untimed (background/aging) commands
    ppn: int         # physical page, or block id for erases


@dataclass(frozen=True, slots=True)
class GCEvent(Event):
    """Garbage-collection progress (victim selection granularity).

    Migration reads/programs and the erase itself surface as
    :class:`FlashOp` events with ``kind == "gc"`` / ``op == "erase"``;
    this event marks the victim decision that caused them.
    """

    plane: int
    block: int
    valid_pages: int   # pages that must migrate before the erase


@dataclass(frozen=True, slots=True)
class GCStall(Event):
    """GC found no victim that would free space: the plane is wedged
    below its restore threshold (starvation precursor)."""

    plane: int
    free_blocks: int


@dataclass(frozen=True, slots=True)
class GcPolicyDecision(Event):
    """A non-trivial scheduling decision by the active GC policy.

    ``action``: ``slice_erase`` (partial GC finished a victim) |
    ``defer`` (partial GC left valid pages for a later slice) |
    ``urgent`` (partial policy fell back to the full restore loop;
    ``block`` is -1).  ``pages`` counts the valid pages relocated by the
    decision.
    """

    plane: int
    policy: str
    action: str
    block: int
    pages: int


@dataclass(frozen=True, slots=True)
class ReadRetry(Event):
    """A page read needed retry steps to correct raw bit errors
    (:mod:`repro.faults`); ``uncorrectable`` when even the full retry
    table left more errors than the ECC budget."""

    rid: int
    ppn: int
    steps: int
    uncorrectable: bool


@dataclass(frozen=True, slots=True)
class MediaFault(Event):
    """A program or erase operation reported failure status.

    ``kind``: ``program`` (absorbed by in-place reprogram attempts) |
    ``erase`` (retires the block).  ``target`` is the PPN for program
    faults and the block id for erase faults.
    """

    rid: int
    kind: str
    target: int


@dataclass(frozen=True, slots=True)
class BadBlockRetired(Event):
    """A block left service permanently (bad-block retirement).

    ``relocated_pages`` counts the valid pages moved off it before
    retirement (the remapping traffic); over-provisioning shrinks by
    one block.
    """

    block: int
    plane: int
    relocated_pages: int


@dataclass(frozen=True, slots=True)
class CMTEvent(Event):
    """Mapping-cache (CMT) activity for one translation table.

    ``kind``: ``hit`` | ``miss`` | ``evict`` (clean drop) |
    ``spill`` (dirty translation page written back to flash).
    """

    table: int
    kind: str
    key: int     # entry key for hit/miss, tvpn for evict/spill


# ----------------------------------------------------------------------
# the bus
# ----------------------------------------------------------------------
Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe dispatch for simulation events.

    Subscribers registered for a concrete event type run before
    wildcard subscribers; within each group, dispatch follows
    subscription order.  ``emit`` is synchronous — handlers must be
    cheap, or subscribe to few event types.
    """

    __slots__ = (
        "now", "current_request", "_subs", "_any", "events_emitted",
        "__weakref__",
    )

    def __init__(self) -> None:
        #: simulated clock for clock-less publishers (engine-advanced)
        self.now: float = 0.0
        #: rid of the request currently being serviced (-1 = none);
        #: lets component-level events attribute themselves to requests
        self.current_request: int = -1
        self._subs: dict[type, list[Subscriber]] = {}
        self._any: list[Subscriber] = []
        self.events_emitted: int = 0

    def subscribe(self, etype: type | None, fn: Subscriber) -> None:
        """Register ``fn`` for events of ``etype`` (None = all events)."""
        if etype is None:
            self._any.append(fn)
        else:
            self._subs.setdefault(etype, []).append(fn)

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to its type's subscribers, then wildcards."""
        self.events_emitted += 1
        subs = self._subs.get(type(event))
        if subs:
            for fn in subs:
                fn(event)
        for fn in self._any:
            fn(event)
