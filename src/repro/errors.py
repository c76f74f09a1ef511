"""Exception hierarchy for the Across-FTL reproduction.

Every error raised on purpose by the library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class GeometryError(ReproError):
    """A physical address is outside the flash geometry."""


class FlashProtocolError(ReproError):
    """A NAND protocol rule was violated (re-program, out-of-order
    program within a block, erase of a block holding valid pages,
    touching a retired bad block, ...).

    These indicate FTL bugs — never workload problems, and never
    *media* failures — and are therefore raised eagerly rather than
    recorded as statistics.  Failures of the NAND medium itself
    (injected by :mod:`repro.faults`: read-retry exhaustion,
    program/erase failure, block wear-out) are expected device
    behaviour: the controller model absorbs them and surfaces them as
    counters and events, not exceptions.
    """


class OutOfSpaceError(ReproError):
    """The flash array has no free page/block left even after GC.

    Raised when the workload's footprint exceeds usable capacity (e.g.
    over-provisioning was configured too small for the trace).
    """


class MappingError(ReproError):
    """An FTL mapping-table invariant was violated."""


class InvariantViolation(ReproError):
    """A cross-layer consistency law failed (:mod:`repro.check`).

    Raised by the runtime invariant checker when two subsystems that
    must agree — mapping tables vs. flash state, counters vs. the
    array's lifetime totals, the free pool vs. per-block write
    pointers, chip timelines vs. their previous sweep — have drifted
    apart.  Like :class:`FlashProtocolError` this always indicates a
    simulator bug, never a workload problem, so it is raised eagerly
    with a message naming both sides of the disagreement.
    """


class TraceFormatError(ReproError):
    """A trace file could not be parsed."""


class SimulationError(ReproError):
    """The simulator was driven incorrectly (e.g. time going backwards)."""


class SweepError(ReproError):
    """One or more runs of a parallel sweep failed.

    Raised by :func:`repro.experiments.parallel.execute_runs` (in the
    default fail-fast mode) *after* every sibling run has completed and
    been persisted, so a single poisoned spec never discards finished
    work.  ``failures`` holds ``(spec_label, exception)`` pairs.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        labels = ", ".join(label for label, _ in self.failures)
        super().__init__(
            f"{len(self.failures)} sweep run(s) failed: {labels}"
        )
