"""The long-lived worker pool (repro.experiments.parallel.WorkerPool)
and its owner, the serve layer: lazy spawn, sharing, a dying worker,
shutdown.  Every test must leave no child process behind."""

import functools
import json
import multiprocessing
import os
import threading
import time
import urllib.request
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.config import SimConfig, SSDConfig
from repro.experiments.parallel import (
    ResultStore,
    RunSpec,
    WorkerPool,
    execute_runs,
)
from repro.experiments.workloads import lun_specs
from repro.fleet import FleetConfig, PlanCache, compose_shards
from repro.fleet.service import FleetService, start_server_thread
from repro.traces.synthetic import VDIWorkloadGenerator

TINY = SSDConfig.tiny()
JOBS = 2


def fleet_req(seed: int) -> dict:
    return {
        "kind": "fleet",
        "fleet": {
            "shards": 4, "tenants": 8, "requests_per_tenant": 30, "seed": seed,
        },
        "device": "tiny",
    }


class Poison:
    """Pickles fine in the parent; unpickling it — which only a worker
    does, on its way into the run — ends that process on the spot."""

    def __reduce__(self):
        return (os._exit, (13,))

    def __repr__(self):
        return "Poison()"


@pytest.fixture(scope="module")
def specs():
    sim_cfg = SimConfig(aged_used=0.3, aged_valid=0.1)
    trace = VDIWorkloadGenerator(lun_specs(TINY, scale=0.0005)[0]).generate()
    return [RunSpec.make(s, trace, TINY, sim_cfg) for s in ("ftl", "across")]


def poisoned(specs):
    good = specs[0]
    bad = RunSpec.make(
        "ftl", good.trace, good.cfg, good.sim_cfg, poison=Poison()
    )
    return [good, bad]


@pytest.fixture(autouse=True)
def no_children_left_behind():
    yield
    assert multiprocessing.active_children() == []


def _comparable(report) -> dict:
    d = report.to_dict()
    d.pop("wall_seconds")
    return d


class TestWorkerPool:
    def test_nothing_spawns_before_the_first_submit(self):
        pool = WorkerPool(JOBS)
        assert pool.stats() == {
            "spawns": 0, "workers": 0, "tasks": 0, "rebuilds": 0
        }
        assert multiprocessing.active_children() == []
        pool.close()  # closing what never opened is fine
        pool.close()

    def test_caller_owned_pool_outlives_the_batch(self, specs):
        with WorkerPool(JOBS) as pool:
            first = execute_runs(specs, jobs=JOBS, pool=pool)
            assert 1 <= pool.stats()["workers"] <= JOBS
            second = execute_runs(specs, jobs=JOBS, pool=pool)
            stats = pool.stats()
            assert stats["spawns"] == 1 and stats["tasks"] == 4
        assert pool.stats()["workers"] == 0
        for a, b in zip(first.reports, second.reports):
            assert _comparable(a) == _comparable(b)

    def test_one_worker_serving_many_runs_matches_in_process(self, specs):
        """Nothing a run leaves in its worker may reach the next run."""
        batch = specs + [
            RunSpec.make("mrsm", specs[0].trace, specs[0].cfg, specs[0].sim_cfg)
        ]
        serial = execute_runs(batch, jobs=1)
        with WorkerPool(1) as pool:
            pooled = execute_runs(batch + batch, jobs=JOBS, pool=pool)
            assert pool.stats()["workers"] == 1
        for a, b in zip(serial.reports * 2, pooled.reports):
            assert _comparable(a) == _comparable(b)
            assert a.latency == b.latency

    def test_killed_worker_fails_the_batch_then_pool_rebuilds(self, specs):
        with WorkerPool(JOBS) as pool:
            out = execute_runs(
                poisoned(specs), jobs=JOBS, pool=pool, on_error="continue"
            )
            assert not out.ok
            labels = [label for label, _ in out.failures]
            assert poisoned(specs)[1].label in labels
            assert all(
                isinstance(exc, BrokenProcessPool) for _, exc in out.failures
            )
            after = execute_runs(specs, jobs=JOBS, pool=pool)
            assert after.ok and after.executed == len(specs)
            stats = pool.stats()
            assert stats["spawns"] == 2 and stats["rebuilds"] == 1

    def test_ephemeral_pool_is_gone_on_return(self, specs):
        out = execute_runs(specs, jobs=JOBS)
        assert out.executed == len(specs)
        # the autouse fixture asserts there is no child left


class TestServicePool:
    def test_construction_and_server_start_spawn_nothing(self, tmp_path):
        service = FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=JOBS
        )
        handle = start_server_thread(service)
        try:
            assert service.stats()["pool"]["spawns"] == 0
            assert multiprocessing.active_children() == []
        finally:
            handle.stop()

    def test_killed_worker_then_next_request_succeeds(self, tmp_path, specs):
        with FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=JOBS
        ) as service:
            out = service._execute(poisoned(specs))
            assert out.failures and poisoned(specs)[1].label in [
                label for label, _ in out.failures
            ]
            doc = service.handle_request(fleet_req(1))
            assert doc["ok"] and doc["executed"] == 4 and not doc["failures"]
            stats = service.stats()
            assert stats["pool"]["rebuilds"] == 1
            assert stats["service"]["runs_failed_total"] == len(out.failures)

    def test_concurrent_cold_requests_share_the_workers(self, tmp_path):
        service = FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=JOBS
        )
        most = [0]
        done = threading.Event()

        def watch():
            while not done.is_set():
                most[0] = max(most[0], len(multiprocessing.active_children()))
                time.sleep(0.005)

        docs = {}

        def ask(seed):
            docs[seed] = service.handle_request(fleet_req(seed))

        watcher = threading.Thread(target=watch)
        askers = [threading.Thread(target=ask, args=(s,)) for s in (11, 12, 13)]
        watcher.start()
        try:
            for t in askers:
                t.start()
            for t in askers:
                t.join(timeout=120)
        finally:
            done.set()
            watcher.join(timeout=10)
        try:
            assert not any(t.is_alive() for t in askers)
            assert all(d["ok"] and d["executed"] == 4 for d in docs.values())
            assert 1 <= most[0] <= JOBS
            pool = service.stats()["pool"]
            # composition tasks are pool tasks: 3 x (4 compose + 4 runs)
            assert pool["spawns"] == 1 and pool["tasks"] == 24
            assert pool["workers"] <= JOBS
        finally:
            service.close()

    def test_close_is_idempotent_and_a_later_request_respawns(self, tmp_path):
        service = FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=JOBS
        )
        assert service.handle_request(fleet_req(21))["executed"] == 4
        assert multiprocessing.active_children() != []
        service.close()
        assert multiprocessing.active_children() == []
        service.close()
        # composition tasks are pool tasks: 4 compose + 4 runs
        assert service.stats()["pool"] == {
            "spawns": 1, "workers": 0, "tasks": 8, "rebuilds": 0
        }
        # answered from the store: no reason to spawn
        assert service.handle_request(fleet_req(21))["cached"] == 4
        assert service.stats()["pool"]["spawns"] == 1
        assert service.handle_request(fleet_req(22))["executed"] == 4
        assert service.stats()["pool"]["spawns"] == 2
        service.close()
        assert multiprocessing.active_children() == []

    def test_stats_over_http_and_stop_joins_the_workers(self, tmp_path):
        service = FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=JOBS
        )
        handle = start_server_thread(service)
        base = f"http://{handle.host}:{handle.port}"

        def post(payload):
            req = urllib.request.Request(
                base + "/simulate", data=json.dumps(payload).encode()
            )
            with urllib.request.urlopen(req, timeout=120) as resp:
                return json.load(resp)

        try:
            digests = {s: post(fleet_req(s))["digest"] for s in (31, 32, 33)}
            assert post(fleet_req(31))["digest"] == digests[31]
            with urllib.request.urlopen(base + "/stats", timeout=30) as r:
                stats = json.load(r)
            assert stats["pool"]["spawns"] == 1
            # composition tasks are pool tasks: 3 cold x (4 compose + 4
            # runs); the repeat is a plan-cache hit and a store hit
            assert stats["pool"]["tasks"] == 24
            assert 1 <= stats["pool"]["workers"] <= JOBS
            assert stats["pool"]["rebuilds"] == 0
            assert stats["plans"] == {"hits": 1, "misses": 3, "entries": 3}
            with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
                text = r.read().decode()
            assert "repro_pool_spawns_total 1" in text
            assert "# TYPE repro_pool_workers gauge" in text
            assert "repro_plans_hits_total 1" in text
            assert multiprocessing.active_children() != []
        finally:
            handle.stop()
        assert multiprocessing.active_children() == []


def assert_same_plans(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shard_id == b.shard_id
        assert a.tenant_ids == b.tenant_ids
        assert a.boundaries == b.boundaries
        assert a.slice_sectors == b.slice_sectors
        assert a.trace.name == b.trace.name
        for name in ("times", "ops", "offsets", "sizes"):
            x, y = getattr(a.trace, name), getattr(b.trace, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)


class TestPooledComposition:
    """A cold fleet plan's shards are composed on the service's workers
    (``PlanCache.compose(..., map=WorkerPool.map)``)."""

    @pytest.mark.parametrize("fleet", [
        FleetConfig(shards=4, tenants=8, requests_per_tenant=30, seed=3),
        # 3 tenants hashed over 8 shards: most shards are empty
        FleetConfig(shards=8, tenants=3, requests_per_tenant=30, seed=4),
        FleetConfig(shards=3, tenants=7, requests_per_tenant=30, seed=5,
                    shard_by="lba"),
    ])
    def test_pooled_plans_equal_compose_shards(self, fleet):
        want = compose_shards(fleet, TINY)
        with WorkerPool(JOBS) as pool:
            cache = PlanCache()
            got = cache.compose(fleet, TINY, map=pool.map)
            assert pool.stats()["tasks"] == fleet.shards
        assert_same_plans(got, want)
        if fleet.tenants < fleet.shards:
            assert any(not p.tenant_ids for p in got)
        # frozen into the cache exactly like an in-process composition
        assert cache.compose(fleet, TINY) is got
        assert all(not p.trace.offsets.flags.writeable for p in got)

    def test_pool_map_keeps_order_and_raises_the_first_failure(self):
        with WorkerPool(JOBS) as pool:
            assert pool.map(pow, [2, 3, 4], [5, 2, 1]) == [32, 9, 4]
            with pytest.raises(ZeroDivisionError):
                pool.map(divmod, [1, 2, 3], [1, 0, 0])

    def test_config_error_in_a_worker_is_the_jobs1_reply(self, tmp_path):
        # an 8-sector tenant slice is smaller than a 16-sector page
        req = {"kind": "fleet", "device": "tiny",
               "fleet": {"shards": 2, "tenants": 4, "tenant_sectors": 8}}
        serial = FleetService(ResultStore(tmp_path / "a"), jobs=1)
        with FleetService(ResultStore(tmp_path / "b"), jobs=JOBS) as pooled:
            doc = pooled.handle_request(req)
            assert pooled.stats()["pool"]["tasks"] == 2  # raised in a worker
        assert doc == serial.handle_request(req)
        assert doc["ok"] is False and "smaller than one page" in doc["error"]

    def test_worker_killed_mid_composition(self, tmp_path):
        with FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=JOBS
        ) as service:
            pool_map = service._pool.map

            def dying_map(fn, *iterables):
                # every task carries a Poison: the worker unpickling one
                # exits on the spot
                return pool_map(functools.partial(fn, Poison()), *iterables)

            service._pool.map = dying_map
            doc = service.handle_request(fleet_req(61))
            del service._pool.map
            assert doc["ok"] is False
            assert doc["error"].startswith("BrokenProcessPool")
            again = service.handle_request(fleet_req(62))
            assert again["ok"] and again["executed"] == 4
            stats = service.stats()
            assert stats["pool"]["rebuilds"] == 1
            assert stats["service"]["errors_total"] == 1
            assert stats["plans"]["entries"] == 1  # nothing cached for 61

    def test_jobs1_composes_in_process(self, tmp_path):
        service = FleetService(
            ResultStore(tmp_path / "store"), device=TINY, jobs=1
        )
        doc = service.handle_request(fleet_req(71))
        assert doc["ok"] and doc["executed"] == 4
        assert service.stats()["pool"] == {
            "spawns": 0, "workers": 0, "tasks": 0, "rebuilds": 0
        }
        assert multiprocessing.active_children() == []


def _descendants(pid: int) -> list[int]:
    """Live descendant processes of ``pid``, via /proc (Linux only)."""
    kids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            kids += [int(p) for p in fh.read().split()]
    return kids + [g for k in kids for g in _descendants(k)]


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
class TestServeCommand:
    def _env(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        return dict(os.environ, PYTHONPATH=src)

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_joins_the_workers(self, tmp_path, signame):
        import re
        import signal
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store"), "--device", "tiny",
             "--jobs", str(JOBS)],
            stderr=subprocess.PIPE, text=True, env=self._env(),
        )
        try:
            banner = proc.stderr.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/simulate",
                data=json.dumps(fleet_req(41)).encode(),
            )
            with urllib.request.urlopen(req, timeout=120) as resp:
                assert json.load(resp)["executed"] == 4
            workers = _descendants(proc.pid)
            assert workers  # idle, waiting for the next request
            proc.send_signal(getattr(signal, signame))
            assert proc.wait(timeout=60) == 0
            assert "shut down" in proc.stderr.read()
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, workers))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()

    def test_once_leaves_no_worker(self, tmp_path, capfd):
        from repro.cli import main

        req = tmp_path / "req.json"
        req.write_text(json.dumps(fleet_req(51)))
        code = main([
            "serve", "--store", str(tmp_path / "store"), "--device", "tiny",
            "--jobs", str(JOBS), "--once", str(req),
        ])
        assert code == 0
        assert json.loads(capfd.readouterr().out)["executed"] == 4
        # the autouse fixture asserts there is no child left
