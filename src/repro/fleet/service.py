"""The ``repro serve`` request handler and its HTTP server.

The service is two layers:

* :class:`FleetService` — pure request handling: a JSON payload in, a
  JSON-serialisable response out.  Sweep and fleet requests are turned
  into :class:`~repro.experiments.parallel.RunSpec` batches and fanned
  out through the hardened
  :func:`~repro.experiments.parallel.execute_runs` with
  ``on_error="continue"`` (a poisoned spec is reported per-label, the
  siblings still land), backed by one shared
  :class:`~repro.experiments.parallel.ResultStore` — so a repeated
  request re-simulates nothing (``executed=0, cached=N``) and returns
  a byte-identical ``digest``.  The service owns two things for its
  whole lifetime: a :class:`~repro.experiments.parallel.WorkerPool`
  (spawned by the first batch that misses the store or the first fleet
  plan to compose, shared by every request thread, joined by
  :meth:`FleetService.close`) and a
  :class:`~repro.fleet.workload.PlanCache` (a repeated fleet request
  synthesises no trace; with ``jobs > 1`` a new plan's shards are
  composed on the pool's workers).
* :func:`make_server` / :func:`serve_forever` /
  :func:`start_server_thread` — the stdlib's
  :class:`~http.server.ThreadingHTTPServer`, one thread per connection
  and one request per connection.  At most four requests simulate at
  once; health checks take no slot, so they stay responsive while a
  sweep runs.

Wire protocol (all bodies JSON):

* ``GET /healthz`` → ``{"ok": true}``
* ``GET /stats`` → service, store, worker-pool, plan-cache and
  aged-device image counters
* ``GET /metrics`` → the same counters as Prometheus text
* ``POST /simulate`` → dispatch on the payload's ``kind``:

  * ``{"kind": "sweep", "schemes": [...], "workload": {...},
    "device": "tiny|bench|table1", "sim": {...}}`` — one run per
    scheme over one calibrated synthetic workload.
  * ``{"kind": "fleet", "fleet": {...FleetConfig...}, "device": ...,
    "sim": {...}}`` — one run per shard, per-tenant QoS aggregated
    from the shard stream sketches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
import sys
import threading
from collections import Counter
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..config import SimConfig, SSDConfig, SCHEMES
from ..errors import ConfigError, ReproError
from ..experiments.benchgate import strip_volatile
from ..experiments.parallel import (
    ResultStore,
    RunSpec,
    WorkerPool,
    execute_runs,
)
from ..traces.synthetic import SyntheticSpec, generate_trace
from .config import FleetConfig
from .qos import aggregate_qos, fleet_summary
from .workload import PlanCache

#: SimConfig knobs a request may set; anything else is rejected so a
#: typo cannot silently run a default simulation under a wrong key
_SIM_KEYS = (
    "aged_used",
    "aged_valid",
    "aging_style",
    "seed",
    "queue_depth",
    "qos_streams",
)

#: workload knobs a sweep request may set (SyntheticSpec subset)
_WORKLOAD_KEYS = (
    "name",
    "requests",
    "write_ratio",
    "across_ratio",
    "mean_write_kb",
    "seed",
    "interarrival_ms",
    "footprint_fraction",
)


def _request_error(msg: str) -> dict:
    return {"ok": False, "error": msg}


def _sim_cfg_from(doc: dict | None) -> SimConfig:
    doc = dict(doc or {})
    extra = set(doc) - set(_SIM_KEYS)
    if extra:
        raise ConfigError(f"unknown sim field(s): {sorted(extra)}")
    if "qos_streams" in doc:
        doc["qos_streams"] = tuple(int(b) for b in doc["qos_streams"])
    cfg = SimConfig(**doc)
    cfg.validate()
    return cfg


def _canonical_digest(doc: Any) -> str:
    """Stable content hash of a JSON-serialisable response section."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ServiceStats:
    """Monotonic service counters (guarded by the service lock)."""

    requests_total: int = 0
    sweeps_total: int = 0
    fleets_total: int = 0
    errors_total: int = 0
    runs_executed_total: int = 0
    runs_cached_total: int = 0
    runs_failed_total: int = 0


class FleetService:
    """JSON request handler over one shared ResultStore.

    Constructing one starts no process: with ``jobs > 1`` the worker
    pool spawns on the first fleet plan to compose or batch with two or
    more runs to simulate.  Call :meth:`close`
    (or use the service as a context manager) when done with it.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        device: SSDConfig | None = None,
        jobs: int = 1,
    ):
        self.store = store
        #: device used when a request names no preset
        self.device = device if device is not None else SSDConfig.tiny()
        self.jobs = jobs
        self._lock = threading.Lock()
        self._stats = ServiceStats()
        #: where executed runs' aged devices came from
        #: (``SimulationReport.host["image"]``), summed over the service
        #: lifetime; guarded by the lock
        self._images = Counter(built=0, memory=0, disk=0, bypass=0)
        self._pool = WorkerPool(jobs)
        self._plans = PlanCache()

    def close(self) -> None:
        """Join the worker processes.  Idempotent; a request handled
        afterwards spawns them again."""
        self._pool.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting ------------------------------------------------------
    def _count(self, **deltas: int) -> None:
        with self._lock:
            for k, v in deltas.items():
                setattr(self._stats, k, getattr(self._stats, k) + v)

    def stats(self) -> dict:
        """Service counters plus the store's, the worker pool's, the
        plan cache's and the aged-device image tallies."""
        with self._lock:
            svc = dataclasses.asdict(self._stats)
            images = dict(self._images)
        return {
            "service": svc,
            "store": self.store.stats(),
            "pool": self._pool.stats(),
            "plans": self._plans.stats(),
            "images": images,
        }

    # -- request plumbing ------------------------------------------------
    def _device_for(self, payload: dict) -> SSDConfig:
        name = payload.get("device")
        if name is None:
            return self.device
        return SSDConfig.preset(name)

    def handle_request(self, payload: dict) -> dict:
        """Dispatch one decoded JSON request; never raises — every
        failure comes back as ``{"ok": false, "error": ...}`` so one
        bad request cannot kill the serve loop."""
        self._count(requests_total=1)
        try:
            if not isinstance(payload, dict):
                raise ConfigError("request body must be a JSON object")
            kind = payload.get("kind")
            if kind == "sweep":
                return self._handle_sweep(payload)
            if kind == "fleet":
                return self._handle_fleet(payload)
            raise ConfigError(
                f"unknown request kind {kind!r}; expected 'sweep' or 'fleet'"
            )
        except (ReproError, TypeError, ValueError, BrokenExecutor) as exc:
            # BrokenExecutor: a worker died composing this request's shards
            self._count(errors_total=1)
            return _request_error(f"{type(exc).__name__}: {exc}")

    def _execute(self, specs: list[RunSpec]):
        out = execute_runs(
            specs,
            jobs=self.jobs,
            store=self.store,
            on_error="continue",
            pool=self._pool,
        )
        self._count(
            runs_executed_total=out.executed,
            runs_cached_total=out.cached,
            runs_failed_total=len(out.failures),
        )
        with self._lock:
            self._images.update(out.images)
        return out

    # -- sweep requests --------------------------------------------------
    def _handle_sweep(self, payload: dict) -> dict:
        self._count(sweeps_total=1)
        cfg = self._device_for(payload)
        sim_cfg = _sim_cfg_from(payload.get("sim"))
        schemes = payload.get("schemes", list(SCHEMES))
        for s in schemes:
            if s not in SCHEMES:
                raise ConfigError(
                    f"unknown scheme {s!r}; choose from {SCHEMES}"
                )
        wl = dict(payload.get("workload") or {})
        extra = set(wl) - set(_WORKLOAD_KEYS)
        if extra:
            raise ConfigError(f"unknown workload field(s): {sorted(extra)}")
        frac = float(wl.pop("footprint_fraction", 0.5))
        if not (0.0 < frac <= 1.0):
            raise ConfigError("footprint_fraction must be in (0, 1]")
        spec = SyntheticSpec(
            name=wl.pop("name", "serve"),
            requests=int(wl.pop("requests", 2000)),
            write_ratio=float(wl.pop("write_ratio", 0.615)),
            across_ratio=float(wl.pop("across_ratio", 0.247)),
            mean_write_kb=float(wl.pop("mean_write_kb", 8.9)),
            footprint_sectors=int(cfg.logical_sectors * frac),
            **wl,
        )
        spec.validate()
        trace = generate_trace(spec)
        specs = [
            RunSpec.make(scheme, trace, cfg, sim_cfg) for scheme in schemes
        ]
        out = self._execute(specs)
        results = {
            s.label: (r.to_dict() if r is not None else None)
            for s, r in zip(specs, out.reports)
        }
        # the digest covers what was simulated, not how long it took:
        # two daemons (or one after a store wipe) must agree on it
        stable = {
            label: (strip_volatile(doc) if doc is not None else None)
            for label, doc in results.items()
        }
        return {
            "ok": out.ok,
            "kind": "sweep",
            "executed": out.executed,
            "cached": out.cached,
            "failures": [
                {"label": label, "error": f"{type(e).__name__}: {e}"}
                for label, e in out.failures
            ],
            "digest": _canonical_digest(stable),
            "results": results,
        }

    # -- fleet requests --------------------------------------------------
    def _handle_fleet(self, payload: dict) -> dict:
        self._count(fleets_total=1)
        cfg = self._device_for(payload)
        sim_doc = dict(payload.get("sim") or {})
        if "qos_streams" in sim_doc:
            raise ConfigError(
                "fleet requests derive qos_streams from the shard plan; "
                "do not set it in 'sim'"
            )
        fleet = FleetConfig.from_dict(dict(payload.get("fleet") or {}))
        # a new plan's shards are composed by the workers that run them
        compose_map = self._pool.map if self.jobs > 1 else None
        plans = self._plans.compose(fleet, cfg, map=compose_map)
        specs = []
        for plan in plans:
            sim_cfg = _sim_cfg_from(
                {**sim_doc, "qos_streams": plan.boundaries}
                if plan.boundaries
                else sim_doc
            )
            specs.append(RunSpec.make(fleet.scheme, plan.trace, cfg, sim_cfg))
        out = self._execute(specs)
        qos = aggregate_qos(plans, out.reports)
        tenants = {
            str(tid): row.to_dict() for tid, row in sorted(qos.items())
        }
        shards = [
            {
                "shard_id": plan.shard_id,
                "tenants": len(plan.tenant_ids),
                "requests": len(plan.trace),
                "ok": report is not None,
            }
            for plan, report in zip(plans, out.reports)
        ]
        summary = fleet_summary(qos)
        return {
            "ok": out.ok,
            "kind": "fleet",
            "executed": out.executed,
            "cached": out.cached,
            "failures": [
                {"label": label, "error": f"{type(e).__name__}: {e}"}
                for label, e in out.failures
            ],
            "digest": _canonical_digest({"tenants": tenants,
                                         "summary": summary}),
            "summary": summary,
            "shards": shards,
            "tenants": tenants,
        }


# ----------------------------------------------------------------------
# the HTTP layer
# ----------------------------------------------------------------------
_MAX_BODY = 8 * 1024 * 1024  # refuse absurd request bodies


class _Handler(BaseHTTPRequestHandler):
    """One request per connection (``Connection: close``); every reply
    but ``/metrics`` is JSON."""

    protocol_version = "HTTP/1.1"
    # a head with no or a bad version is still answered with a status line
    default_request_version = "HTTP/1.1"
    # seconds a connection may stall while its head or body is read (or
    # its reply written); the simulation in between is not bounded by it
    timeout = 60.0
    server: "_Server"

    def log_message(self, format, *args) -> None:  # no access log
        pass

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, doc: Any) -> None:
        self._send(status, json.dumps(doc, sort_keys=True).encode() + b"\n")

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's own refusals in the service's shape: an over-long
        request line or header is a 400, an unknown method a 405."""
        message = message or HTTPStatus(code).phrase
        code = {414: 400, 431: 400, 501: 405}.get(code, code)
        self._json(code, _request_error(message))

    def do_GET(self) -> None:
        service = self.server.service
        if self.path == "/healthz":
            self._json(200, {"ok": True})
        elif self.path == "/stats":
            self._json(200, service.stats())
        elif self.path == "/metrics":
            from ..obs.export import stats_prometheus_text

            text = stats_prometheus_text(service.stats())
            self._send(200, text.encode(), "text/plain; version=0.0.4")
        else:
            self._json(404, _request_error(f"no such route {self.path}"))

    def do_POST(self) -> None:
        self._json(*self._simulate())

    def _simulate(self) -> tuple[int, dict]:
        """(status, reply) of a ``POST``: the body is framed by its
        ``Content-Length`` and read whole before it is routed."""
        if "Transfer-Encoding" in self.headers:
            return 411, _request_error(
                "chunked bodies are not accepted; send Content-Length"
            )
        value = self.headers.get("Content-Length", "0").strip()
        if not (value.isascii() and value.isdigit()):
            return 400, _request_error(f"invalid Content-Length {value!r}")
        length = int(value)
        if length > _MAX_BODY:
            return 413, _request_error("request body too large")
        body = self.rfile.read(length)
        if len(body) < length:
            return 400, _request_error(
                f"body ended after {len(body)} of {length} bytes"
            )
        if self.path not in ("/", "/simulate"):
            return 404, _request_error(f"no such route {self.path}")
        try:
            payload = json.loads(body or b"null")
        except ValueError:
            return 400, _request_error("request body is not JSON")
        with self.server.slots:
            doc = self.server.service.handle_request(payload)
        return (200 if doc.get("ok") else 400), doc


class _Server(ThreadingHTTPServer):
    """A thread per connection over one :class:`FleetService`."""

    # server_close() joins the request threads
    daemon_threads = False

    def __init__(self, address: tuple[str, int], service: FleetService):
        super().__init__(address, _Handler)
        self.service = service
        # at most four simulations at once; health checks take no slot
        self.slots = threading.BoundedSemaphore(4)
        # the accepted connections not yet closed; the lock also keeps a
        # socket from being closed while close_reads shuts it down
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._conns_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._conns_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def close_reads(self) -> None:
        """End the read side of every open connection: a thread waiting
        for a request reads end-of-stream and returns at once, while one
        that is simulating still writes its reply."""
        with self._conns_lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the client has already gone

    def handle_error(self, request, client_address) -> None:
        # a client that went away mid-request has nothing to be told
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def make_server(
    service: FleetService, host: str = "127.0.0.1", port: int = 8765
) -> _Server:
    """Bind ``host:port`` for :func:`serve_forever`; with ``port=0`` the
    OS picks a free port (``server.server_address`` has it)."""
    return _Server((host, port), service)


def serve_forever(server: _Server) -> None:
    """Serve until ``server.shutdown()`` or ``KeyboardInterrupt``, then
    join the request threads and the service's worker pool.  Idle
    connections do not delay the join: their read side is closed
    first."""
    try:
        server.serve_forever()
    finally:
        # request threads first: one still inside handle_request would
        # submit to the closed worker pool and spawn it again
        server.close_reads()
        server.server_close()
        server.service.close()


class ServerHandle:
    """A running server in a background thread (tests, smoke checks)."""

    def __init__(self, server: _Server, thread: threading.Thread):
        self.host, self.port = server.server_address[:2]
        self._server = server
        self._thread = thread

    def stop(self, timeout: float = 5.0) -> None:
        """Stop serving and join the server thread."""
        self._server.shutdown()
        self._thread.join(timeout)


def start_server_thread(
    service: FleetService, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Bind, then run :func:`serve_forever` in a daemon thread."""
    server = make_server(service, host, port)
    thread = threading.Thread(
        target=serve_forever, args=(server,), name="repro-serve", daemon=True
    )
    thread.start()
    return ServerHandle(server, thread)
