"""Parallel sweep execution and the persistent result store
(repro.experiments.parallel)."""

import dataclasses
import json
import sys
import threading

import pytest

from repro.config import SCHEMES, SimConfig, SSDConfig
from repro.experiments import parallel as parallel_mod
from repro.experiments.parallel import (
    ResultStore,
    RunSpec,
    execute_runs,
    run_filename,
    run_key,
    sanitize_fragment,
    trace_fingerprint,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.workloads import lun_specs
from repro.metrics.report import SimulationReport
from repro.traces.synthetic import VDIWorkloadGenerator


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = SSDConfig.tiny()
    sim_cfg = SimConfig(aged_used=0.3, aged_valid=0.1)
    spec = lun_specs(cfg, scale=0.0005)[0]
    trace = VDIWorkloadGenerator(spec).generate()
    return cfg, sim_cfg, trace


def _specs(tiny_setup, schemes=SCHEMES):
    cfg, sim_cfg, trace = tiny_setup
    return [RunSpec.make(s, trace, cfg, sim_cfg) for s in schemes]


def _comparable(report: SimulationReport) -> dict:
    """to_dict minus wall_seconds (the only run-to-run nondeterminism)."""
    d = report.to_dict()
    d.pop("wall_seconds")
    return d


@pytest.fixture
def executed_keys(monkeypatch) -> list:
    """The run key of every simulation ``execute_runs`` starts from now
    on, in call order (``_execute_spec`` wrapped, not replaced)."""
    keys = []
    execute = parallel_mod._execute_spec

    def counted(s, image_dir=None):
        keys.append(s.key())
        return execute(s, image_dir)

    monkeypatch.setattr(parallel_mod, "_execute_spec", counted)
    return keys


class TestNaming:
    def test_sanitize_passthrough(self):
        assert sanitize_fragment("lun1") == "lun1"
        assert sanitize_fragment(0.25) == "0.25"

    def test_sanitize_hostile_values(self):
        assert "/" not in sanitize_fragment("../../etc/passwd")
        assert sanitize_fragment("a b\tc") == "a-b-c"
        assert sanitize_fragment("(1, 'x')") == "1-x"

    def test_sanitize_never_empty(self):
        assert sanitize_fragment("") == "x"
        assert sanitize_fragment("///") == "x"

    def test_run_filename_scheme(self):
        name = run_filename("lun1", "across", 8192, {"gc_policy": "greedy"})
        assert name == "lun1__across__8k__gc_policy-greedy"

    def test_run_filename_sorted_kwargs(self):
        a = run_filename("t", "ftl", 4096, {"b": 2, "a": 1})
        b = run_filename("t", "ftl", 4096, {"a": 1, "b": 2})
        assert a == b


class TestRunKey:
    def test_stable(self, tiny_setup):
        cfg, sim_cfg, trace = tiny_setup
        assert run_key("ftl", trace, cfg, sim_cfg) == run_key(
            "ftl", trace, cfg, sim_cfg
        )

    def test_sensitive_to_inputs(self, tiny_setup):
        cfg, sim_cfg, trace = tiny_setup
        base = run_key("ftl", trace, cfg, sim_cfg)
        assert run_key("mrsm", trace, cfg, sim_cfg) != base
        assert run_key("ftl", trace, cfg.replace(gc_threshold=0.05), sim_cfg) != base
        assert (
            run_key("ftl", trace, cfg, SimConfig(aged_used=0.5, aged_valid=0.2))
            != base
        )
        assert run_key("ftl", trace, cfg, sim_cfg, {"k": 1}) != base

    def test_progress_is_cosmetic(self, tiny_setup):
        cfg, sim_cfg, trace = tiny_setup
        import dataclasses

        noisy = dataclasses.replace(sim_cfg, progress=True)
        assert run_key("ftl", trace, cfg, noisy) == run_key(
            "ftl", trace, cfg, sim_cfg
        )

    def test_trace_fingerprint_sees_content(self, tiny_setup):
        _, _, trace = tiny_setup
        import copy

        other = copy.deepcopy(trace)
        other.sizes = other.sizes.copy()
        other.sizes[0] += 1
        assert trace_fingerprint(other) != trace_fingerprint(trace)

    def test_trace_hashed_once_per_spec(
        self, tiny_setup, tmp_path, monkeypatch
    ):
        """get / put / execute_runs between them ask for a spec's key
        five or more times; the trace is hashed once."""
        from repro.experiments import parallel

        calls = []

        def counting(trace):
            calls.append(trace.name)
            return trace_fingerprint(trace)

        monkeypatch.setattr(parallel, "trace_fingerprint", counting)
        store = ResultStore(tmp_path / "store")
        specs = _specs(tiny_setup, ["ftl", "across"])
        assert store.get(specs[0]) is None
        execute_runs(specs + [specs[0]], store=store)
        assert store.get(specs[0]) is not None
        assert specs[0] in store
        store.put(specs[1], store.get(specs[1]))
        assert len(calls) == len(specs)
        assert specs[0].key() == run_key(
            "ftl", specs[0].trace, specs[0].cfg, specs[0].sim_cfg
        )

    def test_cached_key_survives_pickle_and_not_replace(self, tiny_setup):
        import dataclasses
        import pickle

        (spec,) = _specs(tiny_setup, ["ftl"])
        key = spec.key()
        assert pickle.loads(pickle.dumps(spec)).key() == key
        other = dataclasses.replace(spec, scheme="mrsm")
        assert other.key() != key


class TestReportRoundTrip:
    def test_from_dict_equals_original(self, tiny_setup):
        (report,) = execute_runs(_specs(tiny_setup, ["across"])).reports
        rebuilt = SimulationReport.from_dict(
            json.loads(report.to_json())
        )
        assert rebuilt == report  # dataclass eq: counters, latency, extra
        assert rebuilt.to_dict() == report.to_dict()

    def test_latency_distribution_survives(self, tiny_setup):
        (report,) = execute_runs(_specs(tiny_setup, ["ftl"])).reports
        rebuilt = SimulationReport.from_json(report.to_json())
        for key, summ in report.latency.summaries().items():
            assert rebuilt.latency.summary(key) == summ

    def test_counters_survive_including_kinds(self, tiny_setup):
        (report,) = execute_runs(_specs(tiny_setup, ["mrsm"])).reports
        rebuilt = SimulationReport.from_json(report.to_json())
        assert rebuilt.counters == report.counters
        assert rebuilt.counters.map_writes == report.counters.map_writes
        assert rebuilt.erase_count == report.erase_count


class TestResultStore:
    def test_miss_then_hit(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        (spec,) = _specs(tiny_setup, ["ftl"])
        assert store.get(spec) is None
        out = execute_runs([spec], store=store)
        assert out.executed == 1 and out.cached == 0
        again = store.get(spec)
        assert again is not None
        assert _comparable(again) == _comparable(out.reports[0])

    def test_rerun_executes_nothing(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = _specs(tiny_setup)
        first = execute_runs(specs, store=store)
        second = execute_runs(specs, store=store)
        assert first.executed == len(specs)
        assert second.executed == 0
        assert second.cached == len(specs)
        for a, b in zip(first.reports, second.reports):
            assert _comparable(a) == _comparable(b)

    def test_corrupt_file_is_a_miss(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        (spec,) = _specs(tiny_setup, ["ftl"])
        execute_runs([spec], store=store)
        store.path_for(spec).write_text("{not json")
        assert store.get(spec) is None

    def test_key_mismatch_is_a_miss(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        (spec,) = _specs(tiny_setup, ["ftl"])
        execute_runs([spec], store=store)
        doc = json.loads(store.path_for(spec).read_text())
        doc["key"] = "0" * 64
        store.path_for(spec).write_text(json.dumps(doc))
        assert store.get(spec) is None

    @pytest.mark.parametrize("version", [99, None], ids=["skewed", "missing"])
    def test_another_store_version_is_a_miss(
        self, tiny_setup, tmp_path, executed_keys, version
    ):
        """A file of another (or no) ``store_version`` is a miss like a
        key mismatch: it runs again and is overwritten, then hits."""
        store = ResultStore(tmp_path / "store")
        (spec,) = _specs(tiny_setup, ["ftl"])
        execute_runs([spec], store=store)
        executed_keys.clear()
        path = store.path_for(spec)
        doc = json.loads(path.read_text())
        if version is None:
            del doc["store_version"]
        else:
            doc["store_version"] = version
        path.write_text(json.dumps(doc))
        assert store.get(spec) is None
        assert spec not in store
        out = execute_runs([spec], store=store)
        assert (out.executed, out.cached) == (1, 0)
        assert executed_keys == [spec.key()]
        rewritten = json.loads(path.read_text())
        assert rewritten["store_version"] == ResultStore.STORE_VERSION
        again = execute_runs([spec], store=store)
        assert (again.executed, again.cached) == (0, 1)
        assert executed_keys == [spec.key()]

    @pytest.mark.parametrize(
        "text", ["[]", "3", '"x"', "null"],
        ids=["list", "number", "string", "null"],
    )
    def test_non_object_document_is_a_miss(
        self, tiny_setup, tmp_path, executed_keys, text
    ):
        """Valid JSON that is not an object is a miss like a corrupt
        file, not an error: it runs again and is overwritten, then
        hits."""
        store = ResultStore(tmp_path / "store")
        (spec,) = _specs(tiny_setup, ["ftl"])
        execute_runs([spec], store=store)
        executed_keys.clear()
        path = store.path_for(spec)
        path.write_text(text)
        assert store.get(spec) is None
        assert spec not in store
        out = execute_runs([spec], store=store)
        assert (out.executed, out.cached) == (1, 0)
        assert executed_keys == [spec.key()]
        rewritten = json.loads(path.read_text())
        assert rewritten["key"] == spec.key()
        again = execute_runs([spec], store=store)
        assert (again.executed, again.cached) == (0, 1)
        assert executed_keys == [spec.key()]

    def test_compact_file_is_plain_json(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        (spec,) = _specs(tiny_setup, ["ftl"])
        execute_runs([spec], store=store)
        text = store.path_for(spec).read_text()
        assert "\n" not in text
        doc = json.loads(text)
        assert doc["store_version"] == ResultStore.STORE_VERSION
        assert doc["key"] == spec.key()

    def test_indented_file_of_earlier_commits_still_loads(
        self, tiny_setup, tmp_path
    ):
        """Stores written before the compact encoder used
        ``json.dump(doc, fh, indent=1)``; same document, same version."""
        store = ResultStore(tmp_path / "store")
        (spec,) = _specs(tiny_setup, ["ftl"])
        (report,) = execute_runs([spec], store=store).reports
        path = store.path_for(spec)
        doc = json.loads(path.read_text())
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        assert path.read_text().count("\n") > 10
        again = ResultStore(tmp_path / "store")
        assert again.get(spec).to_dict() == report.to_dict()
        out = execute_runs([spec], store=again)
        assert out.executed == 0 and out.cached == 1

    def test_index_and_len(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_runs(_specs(tiny_setup, ["ftl", "across"]), store=store)
        assert len(store) == 2
        idx = store.index()
        assert {e["scheme"] for e in idx} == {"ftl", "across"}
        assert all(e["key"] for e in idx)

    def test_clear(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_runs(_specs(tiny_setup, ["ftl"]), store=store)
        assert store.clear() == 1
        assert len(store) == 0

    def test_fresh_bypasses_lookup(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = _specs(tiny_setup, ["ftl"])
        execute_runs(specs, store=store)
        out = execute_runs(specs, store=store, fresh=True)
        assert out.executed == 1 and out.cached == 0


class TestParallelExecution:
    def test_jobs4_equals_jobs1(self, tiny_setup):
        """Worker results are bit-identical to in-process runs."""
        specs = _specs(tiny_setup)
        serial = execute_runs(specs, jobs=1)
        fanned = execute_runs(specs, jobs=4)
        assert fanned.executed == len(specs)
        for a, b in zip(serial.reports, fanned.reports):
            assert _comparable(a) == _comparable(b)
            assert a.latency == b.latency  # full sample distributions

    def test_order_preserved(self, tiny_setup):
        specs = _specs(tiny_setup)
        out = execute_runs(specs, jobs=3)
        assert [r.scheme for r in out.reports] == list(SCHEMES)

    def test_parallel_fills_store(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = _specs(tiny_setup)
        execute_runs(specs, jobs=3, store=store)
        assert len(store) == len(specs)
        again = execute_runs(specs, jobs=3, store=store)
        assert again.executed == 0 and again.cached == len(specs)


@pytest.fixture(scope="module")
def micro_ctx_kwargs():
    cfg = SSDConfig(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=32,
        pages_per_block=16,
        page_size_bytes=8 * 1024,
        write_buffer_bytes=512 * 1024,
    )
    return dict(
        cfg=cfg,
        sim_cfg=SimConfig(aged_used=0.6, aged_valid=0.3),
        scale=0.002,
    )


class TestContextIntegration:
    def test_parallel_sweep_equals_serial(self, micro_ctx_kwargs):
        """--jobs 4 vs --jobs 1 on a lun sweep: reports must be equal
        (counters, latency summaries, erase counts)."""
        serial = ExperimentContext(**micro_ctx_kwargs, jobs=1)
        fanned = ExperimentContext(**micro_ctx_kwargs, jobs=4)
        a = serial.sweep(schemes=("ftl", "across"))
        b = fanned.sweep(schemes=("ftl", "across"))
        assert set(a) == set(b)
        for name in a:
            for s in a[name]:
                assert _comparable(a[name][s]) == _comparable(b[name][s])

    def test_sweep_fills_memo_for_run(self, micro_ctx_kwargs):
        ctx = ExperimentContext(**micro_ctx_kwargs, jobs=2)
        ctx.sweep(schemes=("ftl",))
        rep = ctx.run("lun1", "ftl")  # memo hit, no new simulation
        assert rep is ctx.run("lun1", "ftl")

    def test_store_reused_across_contexts(self, micro_ctx_kwargs, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = ExperimentContext(**micro_ctx_kwargs, jobs=2, store=store)
        first.sweep(schemes=("ftl",))
        executed_before = store.puts
        second = ExperimentContext(**micro_ctx_kwargs, store=store)
        out = second.sweep(schemes=("ftl",))
        assert store.puts == executed_before  # nothing re-simulated
        assert store.hits >= 6
        for name, per_scheme in out.items():
            ref = first.run(name, "ftl")
            assert _comparable(per_scheme["ftl"]) == _comparable(ref)

    def test_prewarm_counts_points(self, micro_ctx_kwargs):
        ctx = ExperimentContext(**micro_ctx_kwargs, jobs=2)
        n = ctx.prewarm(schemes=("ftl",))
        assert n == 6  # six luns x one scheme


class TestWorkerFailure:
    """A raising worker must not abort the sweep or lose siblings."""

    def _mixed_specs(self, tiny_setup):
        cfg, sim_cfg, trace = tiny_setup
        good = [RunSpec.make(s, trace, cfg, sim_cfg) for s in ("ftl", "across")]
        # unknown scheme: raises inside the worker, after pickling fine
        bad = RunSpec.make("bogus", trace, cfg, sim_cfg)
        return [good[0], bad, good[1]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_continue_keeps_siblings(self, tiny_setup, tmp_path, jobs):
        store = ResultStore(tmp_path / "store")
        specs = self._mixed_specs(tiny_setup)
        out = execute_runs(
            specs, jobs=jobs, store=store, on_error="continue"
        )
        assert not out.ok
        assert [r is None for r in out.reports] == [False, True, False]
        assert len(out.failures) == 1
        label, exc = out.failures[0]
        assert label == specs[1].label
        assert "bogus" in str(exc)
        # completed siblings were persisted despite the failure
        assert specs[0] in store and specs[2] in store
        assert specs[1] not in store

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_after_siblings_stored(self, tiny_setup, tmp_path, jobs):
        from repro.errors import SweepError

        store = ResultStore(tmp_path / "store")
        specs = self._mixed_specs(tiny_setup)
        with pytest.raises(SweepError) as ei:
            execute_runs(specs, jobs=jobs, store=store)
        assert specs[1].label in str(ei.value)
        assert len(ei.value.failures) == 1
        # fail-fast still drained the batch first: siblings are stored
        assert specs[0] in store and specs[2] in store

    def test_failed_runs_rerun_next_time(self, tiny_setup, tmp_path):
        """A failure is not cached: fixing the spec re-executes it."""
        store = ResultStore(tmp_path / "store")
        specs = self._mixed_specs(tiny_setup)
        execute_runs(specs, store=store, on_error="continue")
        good = execute_runs(specs[:1] + specs[2:], store=store)
        assert good.ok
        assert good.executed == 0 and good.cached == 2

    def test_duplicate_of_failing_spec_mirrors_failure(
        self, tiny_setup, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        specs = self._mixed_specs(tiny_setup)
        batch = specs + [specs[1]]  # same-batch duplicate of the bad spec
        out = execute_runs(batch, store=store, on_error="continue")
        assert out.reports[1] is None and out.reports[3] is None
        assert len(out.failures) == 2

    def test_invalid_on_error_rejected(self, tiny_setup):
        with pytest.raises(ValueError):
            execute_runs(_specs(tiny_setup)[:1], on_error="explode")


class TestSingleFlight:
    """Concurrent identical specs must simulate exactly once."""

    def test_execute_runs_coalesces_threads(
        self, tiny_setup, tmp_path, executed_keys
    ):
        store = ResultStore(tmp_path / "store")
        spec = _specs(tiny_setup)[0]
        gate = threading.Barrier(4)
        outcomes = []

        def worker():
            gate.wait()
            outcomes.append(execute_runs([spec], store=store))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(executed_keys) == 1
        assert len(outcomes) == 4
        # exactly one simulated, the rest store-served
        assert sorted((o.executed, o.cached) for o in outcomes) == [
            (0, 1), (0, 1), (0, 1), (1, 0)
        ]
        stats = store.stats()
        assert stats["inflight"] == 0
        assert stats["coalesced"] >= 1

    def test_same_batch_duplicates_execute_once(self, tiny_setup, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = _specs(tiny_setup)[0]
        out = execute_runs([spec, spec, spec], store=store)
        assert out.executed == 1 and out.cached == 2
        assert [_comparable(r) for r in out.reports[1:]] == [
            _comparable(out.reports[0])
        ] * 2

    def test_a_key_stored_between_lookup_and_claim_is_not_rerun(
        self, tiny_setup, tmp_path, monkeypatch
    ):
        """Another caller may claim, run, store and release a key
        between a batch's store lookup and its claim; the batch then
        reads the stored report instead of simulating it again."""
        store = ResultStore(tmp_path / "store")
        spec = _specs(tiny_setup)[0]
        report = execute_runs([spec]).reports[0]
        claim = store._claim

        def late_claim(key):
            store.put(spec, report)  # the other caller finishes first
            return claim(key)

        monkeypatch.setattr(store, "_claim", late_claim)
        out = execute_runs([spec], store=store)
        assert (out.executed, out.cached) == (0, 1)
        assert _comparable(out.reports[0]) == _comparable(report)
        assert store.stats()["inflight"] == 0

    def test_stats_snapshot_is_consistent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        stats = store.stats()
        assert stats == {
            "hits": 0, "misses": 0, "puts": 0, "coalesced": 0, "inflight": 0,
            "memory_hits": 0, "memory_entries": 0, "memory_bytes": 0,
        }


class TestMemoryTier:
    """``ResultStore``'s in-process tier of decoded reports."""

    @staticmethod
    def _filled(tiny_setup, tmp_path, schemes=("ftl",)):
        store = ResultStore(tmp_path / "store")
        specs = _specs(tiny_setup, schemes)
        execute_runs(specs, store=store)
        return store, specs

    @staticmethod
    def _on_disk(store, spec) -> dict:
        """The stored report, decoded by a store with an empty tier."""
        return ResultStore(store.root).get(spec).to_dict()

    def test_filled_by_reads_then_hits_in_memory(self, tiny_setup, tmp_path):
        store, (spec,) = self._filled(tiny_setup, tmp_path)
        assert store.stats()["memory_entries"] == 0  # a put fills nothing
        first, second = store.get(spec), store.get(spec)
        assert first.to_dict() == second.to_dict() == self._on_disk(store, spec)
        stats = store.stats()
        assert stats["hits"] == 2 and stats["memory_hits"] == 1
        assert stats["memory_entries"] == 1
        assert stats["memory_bytes"] == store.path_for(spec).stat().st_size

    def test_deleted_file_is_a_miss_and_reruns(
        self, tiny_setup, tmp_path, executed_keys
    ):
        store, (spec,) = self._filled(tiny_setup, tmp_path)
        assert store.get(spec) is not None
        store.path_for(spec).unlink()
        assert store.get(spec) is None
        assert store.stats()["memory_entries"] == 0
        executed_keys.clear()
        out = execute_runs([spec], store=store)
        assert (out.executed, out.cached) == (1, 0)
        assert executed_keys == [spec.key()]
        assert store.path_for(spec).exists()

    def test_replaced_file_returns_the_new_report(self, tiny_setup, tmp_path):
        store, (spec,) = self._filled(tiny_setup, tmp_path)
        old = store.get(spec)
        assert store.get(spec).to_dict() == old.to_dict()  # held in memory
        new = SimulationReport.from_dict(old.to_dict())
        new.extra["written_by"] = "another store"
        ResultStore(store.root).put(spec, new)  # temp file + os.replace
        assert store.get(spec).to_dict() == new.to_dict()
        assert store.get(spec).extra["written_by"] == "another store"
        assert store.stats()["memory_hits"] == 2

    def test_file_corrupted_in_place_is_a_miss(self, tiny_setup, tmp_path):
        store, (spec,) = self._filled(tiny_setup, tmp_path)
        assert store.get(spec) is not None
        path = store.path_for(spec)
        ino = path.stat().st_ino
        path.write_text("{not json")  # truncated and rewritten, same inode
        assert path.stat().st_ino == ino
        assert store.get(spec) is None
        assert store.stats()["memory_entries"] == 0

    def test_returned_reports_share_nothing(self, tiny_setup, tmp_path):
        cfg, sim_cfg, trace = tiny_setup
        streamed = dataclasses.replace(
            sim_cfg, qos_streams=(cfg.logical_sectors // 2,)
        )
        spec = RunSpec.make("across", trace, cfg, streamed)
        store = ResultStore(tmp_path / "store")
        execute_runs([spec], store=store)
        stored = self._on_disk(store, spec)
        assert stored["streams"] and stored["extra"]
        for _ in range(3):  # the filling read, then memory hits
            got = store.get(spec)
            assert got.to_dict() == stored
            for samples in got.latency._buckets.values():
                samples.latencies[:] = -1.0
            got.latency.record(True, True, 99.0, 8)
            got.extra.clear()
            got.streams["streams"].clear()
        assert store.stats()["memory_hits"] == 2

    def test_byte_bound_evicts_least_recently_used(
        self, tiny_setup, tmp_path, monkeypatch
    ):
        store, specs = self._filled(tiny_setup, tmp_path, SCHEMES)
        a, b, c = specs[:3]
        size_a, size_b, size_c = (
            store.path_for(s).stat().st_size for s in (a, b, c)
        )
        # room for a and either of the others, never all three
        monkeypatch.setattr(
            parallel_mod, "MEMORY_BYTES", size_a + max(size_b, size_c)
        )
        store = ResultStore(store.root)
        for s in (a, b, a, c):  # c evicts b, the least recently used
            store.get(s)
        stats = store.stats()
        assert stats["memory_hits"] == 1
        assert stats["memory_entries"] == 2
        assert stats["memory_bytes"] == size_a + size_c
        store.get(a)
        store.get(c)
        assert store.stats()["memory_hits"] == 3
        store.get(b)  # read from disk again
        assert store.stats()["memory_hits"] == 3

    def test_a_report_over_the_bound_is_never_kept(
        self, tiny_setup, tmp_path, monkeypatch
    ):
        store, (spec,) = self._filled(tiny_setup, tmp_path)
        size = store.path_for(spec).stat().st_size
        monkeypatch.setattr(parallel_mod, "MEMORY_BYTES", size - 1)
        store = ResultStore(store.root)
        assert store.get(spec) is not None and store.get(spec) is not None
        stats = store.stats()
        assert stats["hits"] == 2 and stats["memory_hits"] == 0
        assert stats["memory_entries"] == stats["memory_bytes"] == 0

    def test_clear_empties_the_tier(self, tiny_setup, tmp_path):
        store, specs = self._filled(tiny_setup, tmp_path, ("ftl", "across"))
        for spec in specs:
            store.get(spec)
        assert store.stats()["memory_entries"] == 2
        store.clear()
        stats = store.stats()
        assert stats["memory_entries"] == stats["memory_bytes"] == 0
        assert all(store.get(spec) is None for spec in specs)

    def test_threads_share_one_tier(self, tiny_setup, tmp_path):
        """Concurrent gets on one store: every caller gets an equal
        report of its own, and no hit is lost from the counts."""
        store, specs = self._filled(tiny_setup, tmp_path, SCHEMES)
        stored = {s.key(): self._on_disk(store, s) for s in specs}
        for spec in specs:
            store.get(spec)  # fill: every later get is a memory hit
        threads_n, rounds = 6, 10
        got: list = []
        errors: list = []

        def worker(n):
            try:
                for i in range(rounds):
                    spec = specs[(n + i) % len(specs)]
                    report = store.get(spec)
                    assert report.to_dict() == stored[spec.key()]
                    got.append(report)
            except Exception as exc:  # reported by the parent below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,))
                for n in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len({id(r) for r in got}) == len(got) == threads_n * rounds
        stats = store.stats()
        assert stats["hits"] == len(specs) + threads_n * rounds
        assert stats["memory_hits"] == threads_n * rounds
        assert stats["misses"] == len(specs)  # the cold sweep's
