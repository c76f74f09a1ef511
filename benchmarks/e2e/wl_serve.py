"""``serve-fleet``: the HTTP service under one closed-loop client.

One client sends the next request only after the previous reply.  A
round holds distinct fleet-kind and sweep-kind requests, each sent once
cold and several times warm in a seed-fixed shuffled order, against a
fresh store and server.  The device is tiny, so the shell — HTTP
parsing, shard composition, pool spawn per request, store lookups,
response JSON — carries the time, not the simulator.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time

from harness import SCHEMES, Pass, median, percentile, workdir
from repro.config import SimConfig, SSDConfig
from repro.experiments.parallel import ResultStore, RunSpec, execute_runs
from repro.fleet.config import FleetConfig
from repro.fleet.qos import aggregate_qos, fleet_summary
from repro.fleet.service import FleetService, start_server_thread
from repro.fleet.workload import compose_shards
from wl_sweep import JOBS, spawn_seconds


def _fleet_payload(p: Pass, seed: int) -> dict:
    return {
        "kind": "fleet",
        "fleet": {
            "shards": 4,
            "tenants": 64,
            "requests_per_tenant": p.sizes.fleet_tenant_requests,
            "seed": seed,
        },
        "device": "tiny",
    }


def _sweep_payload(p: Pass, seed: int) -> dict:
    return {
        "kind": "sweep",
        "schemes": list(SCHEMES),
        "workload": {"requests": p.sizes.sweep_requests, "seed": seed},
        "device": "tiny",
    }


def _round_plan(p: Pass, round_no: int) -> list[tuple[str, dict]]:
    """The round's (label, payload) pairs in sending order; the first
    occurrence of a label is its cold request."""
    base = p.seed + 1000 * (round_no + 1)
    order = []
    for i in range(p.sizes.fleet_per_round):
        item = (f"fleet-{base + i}", _fleet_payload(p, base + i))
        order += [item] * (1 + p.sizes.fleet_warm)
    for i in range(p.sizes.sweeps_per_round):
        item = (f"sweep-{base + i}", _sweep_payload(p, base + i))
        order += [item] * (1 + p.sizes.sweep_warm)
    random.Random(base).shuffle(order)
    return order


def _post(host: str, port: int, payload: dict):
    """One request on its own connection (the server closes it)."""
    body = json.dumps(payload).encode()
    conn = http.client.HTTPConnection(host, port, timeout=150)
    try:
        conn.request(
            "POST", "/simulate", body, {"Content-Type": "application/json"}
        )
        reply = conn.getresponse()
        data = reply.read()
        return reply.status, data
    finally:
        conn.close()


def _stable_digest(doc: dict) -> str:
    """A digest of the reply that repeats from run to run.  The service's
    own sweep-kind ``digest`` folds each report's ``wall_seconds`` in, so
    it only repeats while the store answers; fleet-kind digests cover
    the QoS rows alone and repeat as they are."""
    if doc["kind"] == "fleet":
        return doc["digest"]
    results = {
        label: {k: v for k, v in body.items() if k != "wall_seconds"}
        for label, body in doc["results"].items()
    }
    blob = json.dumps(results, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _simulated_requests(doc: dict) -> int:
    if doc["kind"] == "fleet":
        return sum(s["requests"] for s in doc["shards"])
    return sum(r["requests"] for r in doc["results"].values())


def run(p: Pass) -> None:
    tr = p.tracer
    cold_requests = 0
    reply_bytes = []
    totals = {"runs_executed_total": 0, "runs_cached_total": 0, "errors_total": 0}
    rep, timed = 0, 0.0
    while p.more_reps(rep, timed, p.sizes.serve_min_rounds):
        p.begin_rep(rep)
        t_rep = time.perf_counter()
        plan = _round_plan(p, rep)
        with workdir("serve-") as tmp:
            with tr.span("setup") as setup:
                service = FleetService(
                    ResultStore(tmp), device=SSDConfig.tiny(), jobs=JOBS
                )
                server = start_server_thread(service)
            try:
                cold_digest: dict[str, str] = {}
                with tr.span("serve.round") as region:
                    for label, payload in plan:
                        phase = "warm" if label in cold_digest else "cold"
                        kind = payload["kind"]
                        with tr.span(f"serve.{kind}.{phase}") as sp:
                            status, data = _post(server.host, server.port, payload)
                            doc = json.loads(data)
                        p.sample(f"serve.{kind}.{phase}_ms", sp.seconds * 1e3)
                        reply_bytes.append(len(data))
                        ok = status == 200 and doc.get("ok") is True
                        p.checks.op(ok, f"{kind} {phase} reply: HTTP {status}")
                        if not ok:
                            continue
                        if phase == "cold":
                            cold_digest[label] = doc["digest"]
                            if rep == 0:
                                p.digests[label] = _stable_digest(doc)
                            cold_requests += _simulated_requests(doc)
                            p.checks.op(
                                doc["executed"] > 0 and doc["cached"] == 0,
                                f"{kind} cold reply simulated its runs",
                            )
                        else:
                            p.checks.op(
                                doc["executed"] == 0
                                and doc["digest"] == cold_digest[label],
                                f"{kind} warm reply == cold reply, from store",
                            )
                stats = service.stats()["service"]
                for key in totals:
                    totals[key] += stats[key]
            finally:
                with tr.span("teardown"):
                    server.stop()
        p.sample("rep_s", time.perf_counter() - t_rep)
        p.sample("setup_s", setup.seconds)
        p.sample("wall_s", region.seconds)
        timed += region.seconds
        rep += 1

    p.end_reps()
    p.metrics["setup_s"] = p.setup_once + p.med("setup_s")
    # one round, priced request by request at the fastest reply of its
    # class (see Pass.best): whole rounds are too few to outvote a burst
    # of host noise.  Medians and percentiles are per-layer metrics.
    per_round = {
        "fleet.cold": p.sizes.fleet_per_round,
        "fleet.warm": p.sizes.fleet_per_round * p.sizes.fleet_warm,
        "sweep.cold": p.sizes.sweeps_per_round,
        "sweep.warm": p.sizes.sweeps_per_round * p.sizes.sweep_warm,
    }
    price = {cls: n * p.best(f"serve.{cls}_ms") / 1e3 for cls, n in per_round.items()}
    p.metrics["wall_s"] = sum(price.values())
    p.metrics["sim_req_per_s"] = (
        cold_requests / rep / (price["fleet.cold"] + price["sweep.cold"])
    )
    if p.traced:
        _layers(p, totals, reply_bytes)


def _layers(p: Pass, totals: dict, reply_bytes: list[int]) -> None:
    tr, m = p.tracer, p.metrics
    s = p.samples
    m["serve_cold_p50_ms"] = median(s["serve.fleet.cold_ms"])
    m["serve_warm_p50_ms"] = median(s["serve.fleet.warm_ms"])
    m["serve_warm_p90_ms"] = percentile(s["serve.fleet.warm_ms"], 90)
    m["fleet.sweep_cold_ms"] = median(s["serve.sweep.cold_ms"])
    m["fleet.sweep_warm_ms"] = median(s["serve.sweep.warm_ms"])
    m["fleet.response_bytes"] = sum(reply_bytes) / len(reply_bytes)
    m["fleet.runs_executed"] = totals["runs_executed_total"]
    m["fleet.runs_cached"] = totals["runs_cached_total"]
    m["fleet.errors"] = totals["errors_total"]
    print(
        f"  n: {len(s['serve.fleet.cold_ms'])} cold and "
        f"{len(s['serve.fleet.warm_ms'])} warm fleet-kind, "
        f"{len(s['serve.sweep.cold_ms'])} cold and "
        f"{len(s['serve.sweep.warm_ms'])} warm sweep-kind replies"
    )

    # the handler without the socket: two cold payloads, each re-sent warm
    cold, warm = [], []
    with workdir("direct-") as tmp:
        service = FleetService(ResultStore(tmp), device=SSDConfig.tiny(), jobs=JOBS)
        for i in range(2):
            payload = _fleet_payload(p, p.seed + 500 + i)
            for again in range(1 + p.sizes.sweep_warm):
                with tr.span("fleet.handle") as sp:
                    doc = service.handle_request(payload)
                (warm if again else cold).append(sp.seconds * 1e3)
                p.checks.op(doc.get("ok") is True, "direct handle_request ok")
    m["fleet.handle_cold_ms"] = median(cold)
    m["fleet.handle_warm_ms"] = median(warm)
    # fastest against fastest: the two were measured minutes apart
    m["fleet.http_overhead_ms"] = p.best("serve.fleet.warm_ms") - min(warm)

    cfg = SSDConfig.tiny()
    fleet = FleetConfig.from_dict(_fleet_payload(p, p.seed + 600)["fleet"])
    with tr.span("fleet.compose") as sp:
        plans = compose_shards(fleet, cfg)
    m["fleet.compose_s"] = sp.seconds
    specs = [
        RunSpec.make(
            fleet.scheme, plan.trace, cfg, SimConfig(qos_streams=plan.boundaries)
        )
        for plan in plans
    ]
    with tr.span("experiments.run_key") as sp:
        for spec in specs:
            spec.key()
    m["experiments.run_key_s"] = sp.seconds
    with workdir("shards-") as tmp:
        store = ResultStore(tmp)
        reports = execute_runs(specs, jobs=1).reports
        with tr.span("experiments.store_put") as sp:
            for spec, report in zip(specs, reports):
                store.put(spec, report)
        m["experiments.store_put_s"] = sp.seconds
        with tr.span("experiments.store_get") as sp:
            reports = [store.get(spec) for spec in specs]
        m["experiments.store_get_s"] = sp.seconds
        m["experiments.store_bytes"] = sum(
            f.stat().st_size for f in tmp.glob("*.json")
        )
    with tr.span("fleet.qos") as sp:
        summary = fleet_summary(aggregate_qos(plans, reports))
    m["fleet.qos_s"] = sp.seconds
    p.checks.op(summary["tenants"] == fleet.tenants, "every tenant has a QoS row")
    m["experiments.spawn_s"] = spawn_seconds(p)
    executed, cached = totals["runs_executed_total"], totals["runs_cached_total"]
    m["experiments.store_hit_ratio"] = cached / max(1, executed + cached)

    m["trace_overhead_frac"] = p.overhead("wall_s")
    m["trace_coverage_frac"] = tr.coverage(p.workload, 1, p.samples["rep_s"][1])
