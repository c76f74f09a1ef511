"""The serve layer (repro.fleet.service): request handling, the store
cache loop, and the HTTP server."""

import json
import logging
import socket
import struct
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.config import SSDConfig
from repro.experiments.parallel import ResultStore
from repro.fleet import service as service_mod
from repro.fleet.service import FleetService, start_server_thread

TINY = SSDConfig.tiny()

SWEEP_REQ = {
    "kind": "sweep",
    "schemes": ["ftl", "across"],
    "workload": {"requests": 300, "seed": 5},
    "device": "tiny",
}

FLEET_REQ = {
    "kind": "fleet",
    "fleet": {"shards": 2, "tenants": 4, "requests_per_tenant": 40},
    "device": "tiny",
}


@pytest.fixture()
def service(tmp_path):
    return FleetService(ResultStore(tmp_path / "store"), device=TINY)


class TestSweepRequests:
    def test_first_request_executes(self, service):
        doc = service.handle_request(SWEEP_REQ)
        assert doc["ok"] and doc["kind"] == "sweep"
        assert doc["executed"] == 2 and doc["cached"] == 0
        assert len(doc["results"]) == 2
        for body in doc["results"].values():
            assert body["requests"] == 300

    def test_duplicate_is_pure_cache_hit(self, service):
        first = service.handle_request(SWEEP_REQ)
        second = service.handle_request(SWEEP_REQ)
        assert second["executed"] == 0
        assert second["cached"] == 2
        assert second["digest"] == first["digest"]
        assert second["results"] == first["results"]

    def test_digest_covers_what_was_simulated_not_how_long_it_took(
        self, service, tmp_path
    ):
        """Two daemons (or one after a store wipe) answer the same sweep
        with the same digest; ``wall_seconds`` stays in the results."""
        first = service.handle_request(SWEEP_REQ)
        other = FleetService(ResultStore(tmp_path / "other"), device=TINY)
        second = other.handle_request(SWEEP_REQ)
        assert second["executed"] == 2 and second["cached"] == 0
        assert second["digest"] == first["digest"]
        assert all("wall_seconds" in r for r in second["results"].values())

    def test_changed_workload_misses(self, service):
        service.handle_request(SWEEP_REQ)
        other = dict(SWEEP_REQ, workload={"requests": 301, "seed": 5})
        doc = service.handle_request(other)
        assert doc["executed"] == 2 and doc["cached"] == 0

    def test_defaults_fill_in(self, service):
        doc = service.handle_request({"kind": "sweep", "device": "tiny",
                                      "workload": {"requests": 50}})
        assert doc["ok"]
        assert len(doc["results"]) > 2  # all schemes by default

    @pytest.mark.parametrize("req, frag", [
        ({"kind": "warp"}, "unknown request kind"),
        ({"kind": "sweep", "schemes": ["bogus"]}, "unknown scheme"),
        ({"kind": "sweep", "workload": {"requestz": 1}}, "workload field"),
        ({"kind": "sweep", "sim": {"agedd": 1}}, "unknown sim field"),
        ({"kind": "sweep", "device": "huge"}, "preset"),
        ({"kind": "sweep",
          "workload": {"footprint_fraction": 2.0}}, "footprint_fraction"),
        ({"kind": "fleet", "fleet": {"shards": 0}}, "shards"),
        ({"kind": "fleet",
          "sim": {"qos_streams": [8]}}, "shard plan"),
    ])
    def test_bad_requests_answered_not_raised(self, service, req, frag):
        doc = service.handle_request(req)
        assert doc["ok"] is False
        assert frag in doc["error"]

    def test_error_counted(self, service):
        service.handle_request({"kind": "warp"})
        assert service.stats()["service"]["errors_total"] == 1


class TestFleetRequests:
    def test_fleet_round_trip(self, service):
        doc = service.handle_request(FLEET_REQ)
        assert doc["ok"] and doc["kind"] == "fleet"
        assert len(doc["tenants"]) == 4
        assert doc["summary"]["tenants"] == 4
        assert all(s["ok"] for s in doc["shards"])

    def test_duplicate_fleet_is_cache_hit(self, service):
        first = service.handle_request(FLEET_REQ)
        second = service.handle_request(FLEET_REQ)
        assert second["executed"] == 0
        assert second["cached"] == len(first["shards"])
        assert second["digest"] == first["digest"]
        assert second["tenants"] == first["tenants"]

    def test_plan_cache_hit_keeps_digest(self, service, tmp_path):
        """The second reply comes from the plan cache and the store, the
        third from a service that has neither: one digest."""
        first = service.handle_request(FLEET_REQ)
        second = service.handle_request(FLEET_REQ)
        assert service.stats()["plans"] == {
            "hits": 1, "misses": 1, "entries": 1
        }
        fresh = FleetService(ResultStore(tmp_path / "other"), device=TINY)
        third = fresh.handle_request(FLEET_REQ)
        assert third["executed"] == len(first["shards"])
        assert first["digest"] == second["digest"] == third["digest"]
        assert first["tenants"] == second["tenants"] == third["tenants"]

    def test_in_process_service_never_spawns(self, service):
        service.handle_request(FLEET_REQ)
        assert service.stats()["pool"] == {
            "spawns": 0, "workers": 0, "tasks": 0, "rebuilds": 0
        }

    def test_images_section_tallies_executed_runs(self, service):
        """``/stats`` says where executed runs' aged devices came from;
        cached runs age nothing and count nowhere."""
        aged = dict(SWEEP_REQ, sim={"aged_used": 0.5, "aged_valid": 0.2})
        service.handle_request(aged)
        assert service.stats()["images"] == {
            "built": 2, "memory": 0, "disk": 0, "bypass": 0
        }
        service.handle_request(aged)  # both runs cached
        other = dict(aged, workload={"requests": 301, "seed": 5})
        service.handle_request(other)  # same devices, another trace
        service.handle_request(SWEEP_REQ)  # no aging asked for
        assert service.stats()["images"] == {
            "built": 2, "memory": 2, "disk": 0, "bypass": 2
        }

    def test_stats_accumulate(self, service):
        service.handle_request(FLEET_REQ)
        service.handle_request(FLEET_REQ)
        s = service.stats()
        assert s["service"]["fleets_total"] == 2
        assert s["service"]["runs_cached_total"] >= 2
        assert s["store"]["puts"] >= 2


class TestHttpServer:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("serve") / "store")
        handle = start_server_thread(FleetService(store, device=TINY))
        yield f"http://{handle.host}:{handle.port}"
        handle.stop()

    def _post(self, base, payload):
        req = urllib.request.Request(
            base + "/simulate",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=300) as resp:
            return json.load(resp)

    def test_healthz(self, server):
        with urllib.request.urlopen(server + "/healthz", timeout=30) as r:
            assert json.load(r) == {"ok": True}

    def test_duplicate_sweep_served_from_store(self, server):
        first = self._post(server, SWEEP_REQ)
        second = self._post(server, SWEEP_REQ)
        assert first["ok"] and second["ok"]
        assert second["executed"] == 0 and second["cached"] == 2
        assert second["digest"] == first["digest"]

    def test_stats_route(self, server):
        with urllib.request.urlopen(server + "/stats", timeout=30) as r:
            doc = json.load(r)
        assert set(doc) == {"service", "store", "pool", "plans", "images"}

    def test_metrics_route(self, server):
        with urllib.request.urlopen(server + "/metrics", timeout=30) as r:
            text = r.read().decode()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_store_inflight" in text

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(server + "/nope", timeout=30)
        with ei.value:
            assert ei.value.code == 404

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server + "/simulate", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(req, timeout=30)
        with ei.value:
            assert ei.value.code == 400

    def test_bad_request_400_with_reason(self, server):
        req = urllib.request.Request(
            server + "/simulate",
            data=json.dumps({"kind": "warp"}).encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(req, timeout=30)
        with ei.value:
            assert ei.value.code == 400
            assert "unknown request kind" in json.load(ei.value)["error"]

    @staticmethod
    def _raw(base, data):
        """Send ``data`` over a raw socket: (status, JSON body) of the
        reply."""
        url = urllib.parse.urlsplit(base)
        with socket.create_connection((url.hostname, url.port), 30) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    @pytest.mark.parametrize("head", [
        b"POST /simulate HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        # four of the announced 100 bytes, then the client half-closes
        b"POST /simulate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}{}",
    ], ids=["negative-length", "non-numeric-length", "long-request-line",
            "long-header", "truncated-body"])
    def test_malformed_head_400(self, server, head, caplog):
        """A request the server cannot frame gets a structured 400, not
        a silently closed socket or an unhandled exception."""
        with caplog.at_level(logging.ERROR):
            status, doc = self._raw(server, head)
            assert status == 400
            assert doc["ok"] is False and doc["error"]
            with urllib.request.urlopen(server + "/healthz", timeout=30) as r:
                assert json.load(r) == {"ok": True}
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    @pytest.mark.parametrize("data, status", [
        (b"POST /simulate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", 411),
        (b"POST /simulate HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n", 413),
    ], ids=["chunked", "over-limit"])
    def test_unframed_body_refused(self, server, data, status):
        """A body with no length, or one over the 8 MiB limit, is refused
        before it is read; the server keeps answering."""
        got, doc = self._raw(server, data)
        assert got == status
        assert doc["ok"] is False and doc["error"]
        if status == 411:
            assert "Content-Length" in doc["error"]
        with urllib.request.urlopen(server + "/healthz", timeout=30) as r:
            assert json.load(r) == {"ok": True}

    def test_idle_connection_is_closed(self, server, monkeypatch):
        """A connection that sends nothing cannot hold its request
        thread past the handler's timeout."""
        monkeypatch.setattr(service_mod._Handler, "timeout", 0.5)
        url = urllib.parse.urlsplit(server)
        with socket.create_connection((url.hostname, url.port), 30) as sock:
            sock.settimeout(10)
            t0 = time.monotonic()
            assert sock.recv(1) == b""  # closed by the server, no reply
            assert time.monotonic() - t0 < 5
        with urllib.request.urlopen(server + "/healthz", timeout=30) as r:
            assert json.load(r) == {"ok": True}

    def test_shutdown_does_not_wait_for_an_idle_connection(
        self, tmp_path, monkeypatch
    ):
        """Stopping the server with a client connected that has sent
        nothing takes well under the handler's read timeout: the idle
        connection is closed, not waited for."""
        monkeypatch.setattr(service_mod._Handler, "timeout", 5.0)
        handle = start_server_thread(
            FleetService(ResultStore(tmp_path / "store"), device=TINY)
        )
        with socket.create_connection((handle.host, handle.port), 30) as sock:
            # the server has accepted it once it answers a later request
            with urllib.request.urlopen(
                f"http://{handle.host}:{handle.port}/healthz", timeout=30
            ) as r:
                assert json.load(r) == {"ok": True}
            t0 = time.monotonic()
            handle.stop(timeout=30)
            assert time.monotonic() - t0 < 1.0
            assert not handle._thread.is_alive()
            sock.settimeout(10)
            assert sock.recv(1) == b""  # closed without a reply

    def test_concurrent_duplicates_simulate_once(self, server):
        """Two clients send the same cold sweep at once: the store runs
        each scheme once, and both get the same digest."""
        req = dict(SWEEP_REQ, workload={"requests": 300, "seed": 77})
        docs = [None, None]

        def ask(i):
            docs[i] = self._post(server, req)

        askers = [threading.Thread(target=ask, args=(i,)) for i in (0, 1)]
        for t in askers:
            t.start()
        for t in askers:
            t.join(timeout=300)
        assert all(d is not None and d["ok"] for d in docs)
        assert docs[0]["digest"] == docs[1]["digest"]
        assert docs[0]["executed"] + docs[1]["executed"] == 2


    def test_client_reset_mid_sweep_is_silent(self, tmp_path, capfd, caplog):
        """A client that resets its connection while its sweep runs
        costs nothing but the reply: no traceback, no ERROR log, the
        runs are stored and the worker pool is left as it was."""
        service = FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=2
        )
        handle = start_server_thread(service)
        base = f"http://{handle.host}:{handle.port}"

        def stats():
            with urllib.request.urlopen(base + "/stats", timeout=30) as r:
                return json.load(r)

        req = dict(SWEEP_REQ, workload={"requests": 4000, "seed": 78})
        body = json.dumps(req).encode()
        try:
            with caplog.at_level(logging.ERROR):
                before = stats()
                sock = socket.create_connection((handle.host, handle.port), 30)
                sock.sendall(
                    b"POST /simulate HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body) + body
                )
                # reset once the server is simulating: linger 0 makes
                # close() send an RST, so the reply meets a dead socket
                deadline = time.monotonic() + 60
                while (stats()["service"]["requests_total"]
                       == before["service"]["requests_total"]):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                deadline = time.monotonic() + 120
                while stats()["store"]["puts"] < before["store"]["puts"] + 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                pool = stats()["pool"]
                again = self._post(base, req)
                assert again["executed"] == 0 and again["cached"] == 2
                assert stats()["pool"] == pool
                assert pool["spawns"] == 1 and pool["rebuilds"] == 0
        finally:
            handle.stop()  # joins the request threads, the failed write too
        assert capfd.readouterr().err == ""
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
