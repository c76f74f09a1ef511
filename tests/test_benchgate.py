"""Bench-gate smoke tests: the CLI runs, writes well-formed JSON, and
``--check`` fails on doctored baselines.

The full scenario set takes seconds; these tests shrink it to the one
cheapest scenario via monkeypatching, which also proves the gate logic
is independent of the pinned set.
"""

import json

import pytest

from repro import cli
from repro.experiments import benchgate


@pytest.fixture
def one_scenario(monkeypatch):
    """Shrink the pinned set to its cheapest member for smoke speed."""
    small = tuple(
        sc for sc in benchgate.scenarios() if sc.name == "faults-stress-ftl"
    )
    assert small
    monkeypatch.setattr(benchgate, "scenarios", lambda: small)
    return small[0]


def _run(tmp_path, argv):
    out = tmp_path / "bench.json"
    rc = benchgate.main(["--out", str(out), *argv])
    doc = json.loads(out.read_text()) if out.exists() else None
    return rc, doc


def test_bench_writes_wellformed_json(tmp_path, one_scenario):
    rc, doc = _run(tmp_path, [])
    assert rc == 0
    assert doc["format"] == 1
    assert doc["calibration_score"] > 0
    (entry,) = doc["scenarios"]
    assert entry["name"] == one_scenario.name
    assert entry["requests"] > 0
    assert entry["requests_per_second"] > 0
    assert entry["normalized_throughput"] > 0
    assert len(entry["digest"]) == 64
    # deterministic simulation: a second run reproduces the digest
    rc2, doc2 = _run(tmp_path, [])
    assert doc2["scenarios"][0]["digest"] == entry["digest"]


def test_check_passes_against_own_output(tmp_path, one_scenario):
    rc, doc = _run(tmp_path, [])
    # halve the recorded throughput: the smoke scenario runs in ~0.1 s,
    # where scheduler noise alone can exceed the 15% gate — digest
    # equality (bit-identical reports) is the assertion that matters
    doc["scenarios"][0]["normalized_throughput"] *= 0.5
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(doc))
    rc, _ = _run(tmp_path, ["--check", "--baseline", str(baseline)])
    assert rc == 0


def test_check_fails_on_doctored_digest(tmp_path, one_scenario):
    rc, doc = _run(tmp_path, [])
    doc["scenarios"][0]["digest"] = "0" * 64
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(doc))
    rc, _ = _run(tmp_path, ["--check", "--baseline", str(baseline)])
    assert rc != 0


def test_check_fails_on_throughput_regression(tmp_path, one_scenario):
    rc, doc = _run(tmp_path, [])
    # pretend the baseline machine was 100x faster than this run
    doc["scenarios"][0]["normalized_throughput"] *= 100
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(doc))
    rc, _ = _run(tmp_path, ["--check", "--baseline", str(baseline)])
    assert rc != 0


def test_check_fails_on_missing_baseline(tmp_path, one_scenario):
    rc, _ = _run(tmp_path, ["--check", "--baseline", str(tmp_path / "nope.json")])
    assert rc != 0


def test_compare_reports_set_mismatches():
    base = {"scenarios": [{"name": "a", "digest": "x", "requests": 1,
                           "total_flash_reads": 1, "total_flash_writes": 1,
                           "erases": 0, "normalized_throughput": 1.0}]}
    cur = {"scenarios": [{"name": "b", "digest": "x", "requests": 1,
                          "total_flash_reads": 1, "total_flash_writes": 1,
                          "erases": 0, "normalized_throughput": 1.0}]}
    problems = benchgate.compare(base, cur)
    assert any("not present in baseline" in p for p in problems)
    assert any("missing from current run" in p for p in problems)


class _FakeScenario:
    """Stand-in with a constant report: lets the measurement-loop
    tests script wall times without running a simulation."""

    name = "fake"
    scheme = "ftl"

    def run(self):
        from types import SimpleNamespace

        return SimpleNamespace(
            requests=100,
            counters=SimpleNamespace(
                total_reads=1, total_writes=2, erases=0
            ),
        )


def _fake_measure_env(monkeypatch, clock_values, digests):
    it = iter(clock_values)
    monkeypatch.setattr(benchgate.time, "perf_counter", lambda: next(it))
    monkeypatch.setattr(benchgate, "calibrate", lambda: 100.0)
    monkeypatch.setattr(benchgate, "scenarios", lambda: (_FakeScenario(),))
    dg = iter(digests)
    monkeypatch.setattr(benchgate, "report_digest", lambda _r: next(dg))


def test_measure_keeps_best_wall_of_passes(monkeypatch):
    """Each scenario keeps the fastest pass: a one-off background blip
    (the slow pass 1 here) must not depress the recorded throughput."""
    _fake_measure_env(
        monkeypatch,
        clock_values=[0.0, 5.0, 100.0, 102.0],  # walls: 5.0 then 2.0
        digests=["d" * 64] * 2,
    )
    doc = benchgate.measure(passes=2)
    (entry,) = doc["scenarios"]
    assert entry["wall_seconds"] == pytest.approx(2.0)
    assert entry["requests_per_second"] == pytest.approx(50.0)


def test_measure_raises_on_digest_drift(monkeypatch):
    """The repeat passes double as a determinism check: a digest that
    changes between passes is a bug, not a candidate for best-of."""
    _fake_measure_env(
        monkeypatch,
        clock_values=[0.0, 1.0, 2.0, 3.0],
        digests=["a" * 64, "b" * 64],
    )
    with pytest.raises(RuntimeError, match="non-deterministic"):
        benchgate.measure(passes=2)


def test_repro_bench_cli(tmp_path, one_scenario, monkeypatch):
    """`repro bench` wires through to the same gate logic."""
    out = tmp_path / "cli.json"
    rc = cli.main(["bench", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["scenarios"][0]["name"] == one_scenario.name
    # and --check against a doctored baseline exits nonzero
    doc["scenarios"][0]["erases"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = cli.main([
        "bench", "--out", str(out), "--check", "--baseline", str(bad),
    ])
    assert rc != 0
