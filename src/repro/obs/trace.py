"""Span assembly and trace export (Chrome trace viewer + JSONL).

:class:`TraceRecorder` subscribes to the event bus and folds the flat
event stream into **per-request spans**: one record per host request
carrying its class, the FTL paths it took, the write-buffer outcome and
every flash command issued on its behalf (including GC work it
triggered).  The result can be exported two ways:

* ``write_chrome(path)`` — the Chrome trace-viewer / Perfetto JSON
  format (open ``chrome://tracing`` or https://ui.perfetto.dev and load
  the file).  Requests render as slices on a small set of lanes and
  every flash command renders on its chip's row, so chip contention and
  GC interference are directly visible.
* ``write_jsonl(path)`` — one JSON span per line for programmatic
  analysis (pandas ``read_json(lines=True)`` etc.).

Chrome-trace timestamps are microseconds; simulated time here is
milliseconds, so everything is scaled by 1000.
"""

from __future__ import annotations

import json
import weakref
from typing import Optional

from .attribution import PHASES
from .events import (
    BufferLookup,
    EventBus,
    FlashOp,
    FTLDecision,
    GCEvent,
    GCStall,
    RequestArrive,
    RequestComplete,
    RequestPhases,
)

#: number of parallel display lanes for request slices (requests whose
#: service windows overlap land on different lanes round-robin)
REQUEST_LANES = 8

_OP_NAMES = {0: "read", 1: "write", 2: "trim"}


class TraceRecorder:
    """Turns bus events into per-request spans."""

    def __init__(self, bus: EventBus):
        #: a weak reference: the bus holds this recorder's handlers, so
        #: a strong one back would make a cycle
        self._bus = weakref.ref(bus)
        #: rid -> open span dict (arrival seen, completion pending)
        self._open: dict[int, dict] = {}
        #: finished spans in completion order
        self.spans: list[dict] = []
        #: events that happen outside any request (metadata flush, GC
        #: stalls) — kept for the chrome export's chip rows
        self.orphan_flash: list[FlashOp] = []
        self.gc_events: list[GCEvent] = []
        self.gc_stalls: list[GCStall] = []
        bus.subscribe(RequestArrive, self._on_arrive)
        bus.subscribe(RequestComplete, self._on_complete)
        bus.subscribe(BufferLookup, self._on_buffer)
        bus.subscribe(FTLDecision, self._on_decision)
        bus.subscribe(FlashOp, self._on_flash)
        bus.subscribe(GCEvent, self._on_gc)
        bus.subscribe(GCStall, self._on_gc_stall)
        bus.subscribe(RequestPhases, self._on_phases)

    # -- event handlers --------------------------------------------------
    def _on_arrive(self, ev: RequestArrive) -> None:
        self._open[ev.rid] = {
            "rid": ev.rid,
            "op": _OP_NAMES.get(ev.op, str(ev.op)),
            "offset": ev.offset,
            "size": ev.size,
            "across": ev.across,
            "arrival_ms": ev.t,
            "finish_ms": None,
            "latency_ms": None,
            "buffer": None,
            "paths": [],
            "flash_ops": [],
            "gc_victims": 0,
            "phases": None,
        }

    def _on_complete(self, ev: RequestComplete) -> None:
        span = self._open.pop(ev.rid, None)
        if span is None:
            return
        span["finish_ms"] = ev.t
        span["latency_ms"] = ev.latency
        self.spans.append(span)

    def _on_buffer(self, ev: BufferLookup) -> None:
        span = self._open.get(ev.rid)
        if span is not None:
            span["buffer"] = "hit" if ev.hit else "miss"

    def _on_decision(self, ev: FTLDecision) -> None:
        span = self._open.get(ev.rid)
        if span is not None:
            span["paths"].append(ev.path)

    def _on_flash(self, ev: FlashOp) -> None:
        rec = {
            "op": ev.op,
            "kind": ev.kind,
            "chip": ev.chip,
            "start_ms": ev.t,
            "finish_ms": ev.finish,
            "ppn": ev.ppn,
        }
        span = self._open.get(ev.rid)
        if span is not None:
            span["flash_ops"].append(rec)
        else:
            self.orphan_flash.append(ev)

    def _on_gc(self, ev: GCEvent) -> None:
        self.gc_events.append(ev)
        span = self._open.get(self._bus().current_request)
        if span is not None:
            span["gc_victims"] += 1

    def _on_gc_stall(self, ev: GCStall) -> None:
        self.gc_stalls.append(ev)

    def _on_phases(self, ev: RequestPhases) -> None:
        span = self._open.get(ev.rid)
        if span is not None:
            span["phases"] = {name: ms for name, ms in ev.phases}

    # -- exports ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def to_chrome(self) -> dict:
        """The Chrome trace-viewer JSON object (``traceEvents`` list).

        Metadata records lead: process names plus a ``thread_name`` for
        every request lane and every chip row that carries events.  The
        timed events that follow are sorted by timestamp (the validity
        contract the Chrome-trace test pins).  Spans carrying
        attribution phases (``observability.attribution``) additionally
        render each phase as a nested sub-slice on the request's lane,
        so the viewer shows *where* each request's latency went.
        """
        meta: list[dict] = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "requests"}},
            {"ph": "M", "pid": 2, "name": "process_name",
             "args": {"name": "flash chips"}},
        ]
        for lane in range(REQUEST_LANES):
            meta.append({
                "ph": "M", "pid": 1, "tid": lane, "name": "thread_name",
                "args": {"name": f"lane {lane}"},
            })
        chips: set[int] = set()
        timed: list[dict] = []
        lane_free_until = [float("-inf")] * REQUEST_LANES
        for span in self.spans:
            start = span["arrival_ms"]
            dur = max(0.0, (span["finish_ms"] or start) - start)
            lane = 0
            for j in range(REQUEST_LANES):
                if lane_free_until[j] <= start:
                    lane = j
                    break
            else:
                lane = min(
                    range(REQUEST_LANES), key=lambda j: lane_free_until[j]
                )
            lane_free_until[lane] = start + dur
            name = span["op"]
            if span["across"]:
                name += " (across)"
            timed.append({
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": lane,
                "ts": start * 1000.0,
                "dur": dur * 1000.0,
                "args": {
                    "rid": span["rid"],
                    "offset": span["offset"],
                    "size": span["size"],
                    "paths": span["paths"],
                    "buffer": span["buffer"],
                    "flash_ops": len(span["flash_ops"]),
                    "gc_victims": span["gc_victims"],
                },
            })
            if span["phases"]:
                # sequential phase sub-slices: a latency decomposition
                # laid end-to-end (phases sum to the span duration),
                # not a reconstruction of when each phase ran
                t0 = start
                for phase in PHASES:
                    ms = span["phases"].get(phase, 0.0)
                    if ms <= 0.0:
                        continue
                    timed.append({
                        "name": f"phase:{phase}",
                        "ph": "X",
                        "pid": 1,
                        "tid": lane,
                        "ts": t0 * 1000.0,
                        "dur": ms * 1000.0,
                        "args": {"rid": span["rid"]},
                    })
                    t0 += ms
            for fo in span["flash_ops"]:
                chips.add(fo["chip"])
                timed.append(_chrome_flash(fo, span["rid"]))
        for ev in self.orphan_flash:
            chips.add(ev.chip)
            timed.append(_chrome_flash({
                "op": ev.op, "kind": ev.kind, "chip": ev.chip,
                "start_ms": ev.t, "finish_ms": ev.finish, "ppn": ev.ppn,
            }, -1))
        for ev in self.gc_stalls:
            timed.append({
                "name": "GC stall",
                "ph": "i",
                "s": "g",
                "pid": 2,
                "tid": 0,
                "ts": ev.t * 1000.0,
                "args": {"plane": ev.plane, "free_blocks": ev.free_blocks},
            })
        for chip in sorted(chips):
            meta.append({
                "ph": "M", "pid": 2, "tid": chip, "name": "thread_name",
                "args": {"name": f"chip {chip}"},
            })
        timed.sort(key=lambda e: e["ts"])
        return {"traceEvents": meta + timed, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        """Write :meth:`to_chrome` as JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def write_jsonl(self, path) -> None:
        """Write one span JSON object per line to ``path``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def path_histogram(self) -> dict[str, int]:
        """How many spans took each FTL path (a span may take several)."""
        hist: dict[str, int] = {}
        for span in self.spans:
            for p in span["paths"]:
                hist[p] = hist.get(p, 0) + 1
        return hist


def _chrome_flash(fo: dict, rid: int) -> dict:
    dur = max(0.0, fo["finish_ms"] - fo["start_ms"])
    return {
        "name": f"{fo['op']}:{fo['kind']}",
        "ph": "X",
        "pid": 2,
        "tid": fo["chip"],
        "ts": fo["start_ms"] * 1000.0,
        "dur": dur * 1000.0,
        "args": {"ppn": fo["ppn"], "rid": rid},
    }


def load_chrome(path) -> Optional[dict]:
    """Read back a Chrome trace file (round-trip helper for tests)."""
    with open(path) as fh:
        return json.load(fh)
