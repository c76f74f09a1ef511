"""Prometheus text-exposition lint, exporters under fault injection,
and end-to-end Chrome-trace validity (ISSUE 6 satellite coverage)."""

import json

import pytest

from repro.config import FaultConfig, SimConfig, SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.metrics.counters import FlashOpCounters, OpKind
from repro.obs.export import (
    _escape,
    _labels,
    attribution_prometheus_text,
    json_snapshot,
    prometheus_text,
    stats_prometheus_text,
)
from repro.sim.engine import Simulator
from repro.traces.synthetic import SyntheticSpec, VDIWorkloadGenerator


def lint_exposition(text: str) -> list[str]:
    """Problems against the Prometheus text exposition format (empty =
    clean): every sampled family has exactly one HELP and one TYPE line
    emitted before its first sample; label values carry no raw ``"`` or
    newline; histogram samples only under histogram-typed families."""
    problems: list[str] = []
    help_seen: dict[str, int] = {}
    type_seen: dict[str, str] = {}
    sampled_before_meta: set[str] = set()

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if type_seen.get(base) == "histogram":
                    return base
        return sample_name

    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split()[2]
            help_seen[name] = help_seen.get(name, 0) + 1
            if help_seen[name] > 1:
                problems.append(f"duplicate HELP for {name}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            name, mtype = parts[2], parts[3]
            if name in type_seen:
                problems.append(f"duplicate TYPE for {name}")
            if mtype not in ("counter", "gauge", "histogram", "summary"):
                problems.append(f"bad TYPE {mtype} for {name}")
            type_seen[name] = mtype
            continue
        if line.startswith("#"):
            continue
        sample_name = line.split("{")[0].split()[0]
        fam = family_of(sample_name)
        if fam not in help_seen or fam not in type_seen:
            sampled_before_meta.add(fam)
        if "{" in line:
            label_blob = line[line.index("{") + 1: line.rindex("}")]
            body = label_blob
            for escaped in ('\\\\', '\\"', "\\n"):
                body = body.replace(escaped, "")
            # after removing escapes, quotes only delimit values
            if body.count('"') % 2:
                problems.append(f"unbalanced quotes in {line!r}")
    for fam in sampled_before_meta:
        problems.append(f"family {fam} sampled without HELP/TYPE")
    return problems


def _counters():
    c = FlashOpCounters()
    c.count_read(OpKind.DATA, 10)
    c.count_write(OpKind.MAP, 2)
    c.count_erase()
    return c


class TestExpositionLint:
    def test_counter_text_is_clean(self):
        assert lint_exposition(prometheus_text(_counters())) == []

    def test_serve_stats_text_is_clean(self, tmp_path):
        """``GET /metrics``: all five ``/stats`` sections, every family
        named, typed and helped once."""
        from repro.experiments.parallel import ResultStore
        from repro.fleet.service import FleetService

        stats = FleetService(ResultStore(tmp_path)).stats()
        text = stats_prometheus_text(stats)
        assert lint_exposition(text) == []
        samples = [
            line.split()[0] for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == sum(len(section) for section in stats.values())
        assert len(set(samples)) == len(samples)
        types = {
            line.split()[2]: line.split()[3]
            for line in text.splitlines() if line.startswith("# TYPE ")
        }
        gauges = {name for name, t in types.items() if t == "gauge"}
        assert gauges == {
            "repro_store_inflight", "repro_store_memory_entries",
            "repro_store_memory_bytes", "repro_pool_workers",
            "repro_plans_entries",
        }
        for name in set(types) - gauges:
            assert name.endswith("_total"), name
        assert {n for n in types if n.startswith("repro_images_")} == {
            f"repro_images_{source}_total"
            for source in ("built", "memory", "disk", "bypass")
        }
        # a family without its own HELP text would fall back to its key
        keys = {k for section in stats.values() for k in section}
        for line in text.splitlines():
            if line.startswith("# HELP "):
                assert line.split(" ", 3)[3] not in keys, line

    def test_gauges_and_chip_labels_are_clean(self):
        import numpy as np

        from repro.obs.samplers import (
            ChipUtilizationSampler,
            GaugeSampler,
            SamplerSet,
        )

        class _TL:
            busy_time = np.array([3.0, 0.0])

        ss = SamplerSet(10.0)
        cu = ChipUtilizationSampler(_TL())
        cu.sample(0.0)
        cu.sample(10.0)
        ss.add(cu)
        ss.add(GaugeSampler("queue_depth", lambda: 4))
        ss.force_sample(10.0)
        text = prometheus_text(_counters(), ss)
        assert lint_exposition(text) == []
        # every gauge family carries a HELP line
        for line in text.splitlines():
            if "# TYPE" in line and line.endswith("gauge"):
                name = line.split()[2]
                assert f"# HELP {name} " in text, name

    def test_fault_counter_families_present(self):
        text = prometheus_text(_counters())
        for fam in (
            "repro_read_retries_total",
            "repro_uncorrectable_reads_total",
            "repro_program_fails_total",
            "repro_erase_fails_total",
            "repro_bad_blocks_total",
            "repro_fault_relocations_total",
        ):
            assert f"# TYPE {fam} counter" in text
            assert f"\n{fam} 0" in text

    def test_attribution_histograms_are_clean(self):
        from repro.obs.attribution import AttributionRecorder

        r = AttributionRecorder()
        for lat in (0.05, 0.2, 1.0):
            r.begin(0.0, 0.0)
            r.record(0, 0.0, 0.0, (("flash_read", lat),))
            r.complete("read_normal", lat)
        text = attribution_prometheus_text(r)
        assert lint_exposition(text) == []
        assert "# TYPE repro_request_phase_latency_ms histogram" in text
        assert 'le="+Inf"' in text
        assert 'repro_requests_total{class="read_normal"} 3' in text

    def test_label_values_escaped(self):
        assert _escape('a"b\nc\\d') == 'a\\"b\\nc\\\\d'
        rendered = _labels({"chip": 'we"ird\nname'})
        assert '\\"' in rendered and "\\n" in rendered
        assert lint_exposition(f"# HELP m x\n# TYPE m gauge\nm{rendered} 1\n") == []


class TestExportersUnderFaults:
    @pytest.fixture(scope="class")
    def faulty_run(self):
        cfg = SSDConfig.tiny()
        spec = SyntheticSpec(
            "faulty", 1_500, 0.6, 0.25, 9.0,
            footprint_sectors=int(cfg.logical_sectors * 0.6), seed=77,
        )
        trace = VDIWorkloadGenerator(spec).generate()
        sim_cfg = SimConfig(faults=FaultConfig.stress()).replace_observability(
            enabled=True, trace=True, sample_interval_ms=50.0,
        )
        service = FlashService(cfg)
        sim = Simulator(make_ftl("ftl", service), sim_cfg)
        events = []
        sim.obs.bus.subscribe(None, events.append)
        rep = sim.run(trace)
        return sim, rep, events

    def test_fault_events_on_the_bus(self, faulty_run):
        from repro.obs.events import BadBlockRetired, MediaFault, ReadRetry

        _sim, rep, events = faulty_run
        kinds = {type(e) for e in events}
        assert rep.counters.read_retries > 0
        assert ReadRetry in kinds
        assert MediaFault in kinds
        if rep.counters.bad_blocks:
            assert BadBlockRetired in kinds

    def test_fault_counters_in_prometheus_text(self, faulty_run):
        sim, rep, _events = faulty_run
        text = prometheus_text(rep.counters, sim.obs.samplers)
        assert lint_exposition(text) == []
        c = rep.counters
        assert f"repro_read_retries_total {c.read_retries}" in text
        assert (
            f"repro_uncorrectable_reads_total {c.uncorrectable_reads}" in text
        )
        assert f"repro_program_fails_total {c.program_fails}" in text
        assert f"repro_erase_fails_total {c.erase_fails}" in text
        assert f"repro_bad_blocks_total {c.bad_blocks}" in text
        assert f"repro_fault_relocations_total {c.fault_relocations}" in text

    def test_fault_counters_in_json_snapshot(self, faulty_run):
        sim, rep, _events = faulty_run
        snap = json_snapshot(rep.counters, sim.obs.samplers)
        json.dumps(snap)
        for key in (
            "read_retries", "uncorrectable_reads", "program_fails",
            "erase_fails", "bad_blocks", "fault_relocations",
        ):
            assert snap["counters"][key] == getattr(rep.counters, key)


class TestChromeTraceValidity:
    @pytest.fixture(scope="class")
    def chrome_doc(self, tmp_path_factory):
        cfg = SSDConfig.tiny()
        spec = SyntheticSpec(
            "chrometrace", 400, 0.6, 0.25, 8.0,
            footprint_sectors=cfg.logical_sectors // 2, seed=9,
        )
        trace = VDIWorkloadGenerator(spec).generate()
        sim_cfg = SimConfig().replace_observability(
            enabled=True, trace=True, attribution=True,
        )
        service = FlashService(cfg)
        sim = Simulator(make_ftl("across", service), sim_cfg)
        sim.run(trace)
        path = tmp_path_factory.mktemp("chrome") / "trace.json"
        sim.obs.recorder.write_chrome(path)
        return json.loads(path.read_text())

    def test_loads_as_json_with_trace_events(self, chrome_doc):
        assert isinstance(chrome_doc["traceEvents"], list)
        assert chrome_doc["displayTimeUnit"] == "ms"

    def test_timed_events_time_sorted(self, chrome_doc):
        ts = [
            e["ts"] for e in chrome_doc["traceEvents"]
            if e.get("ph") != "M"
        ]
        assert ts == sorted(ts)

    def test_pid_and_tid_name_metadata_present(self, chrome_doc):
        meta = [e for e in chrome_doc["traceEvents"] if e.get("ph") == "M"]
        proc = {
            e["pid"]: e["args"]["name"]
            for e in meta if e["name"] == "process_name"
        }
        assert proc == {1: "requests", 2: "flash chips"}
        threads = [e for e in meta if e["name"] == "thread_name"]
        lanes = {e["tid"] for e in threads if e["pid"] == 1}
        chips = {e["tid"] for e in threads if e["pid"] == 2}
        assert lanes  # request lanes named
        used_chip_rows = {
            e["tid"] for e in chrome_doc["traceEvents"]
            if e.get("ph") == "X" and e.get("pid") == 2
        }
        assert used_chip_rows <= chips

    def test_phase_subslices_fit_inside_their_request(self, chrome_doc):
        spans = {}
        for e in chrome_doc["traceEvents"]:
            if e.get("ph") == "X" and e.get("pid") == 1 \
                    and not e["name"].startswith("phase:"):
                spans[e["args"]["rid"]] = e
        phase_events = [
            e for e in chrome_doc["traceEvents"]
            if e.get("ph") == "X" and e["name"].startswith("phase:")
        ]
        assert phase_events
        for e in phase_events:
            parent = spans[e["args"]["rid"]]
            assert e["tid"] == parent["tid"]
            assert e["ts"] >= parent["ts"] - 1e-6
            assert (
                e["ts"] + e["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6
            )
