"""Self-test of the benchmark's plumbing (not of its numbers).

    python3 benchmarks/e2e/selftest.py

Runs ``run.py --smoke`` over all four workloads and one driver-style
single-workload invocation, then asserts that ``BENCHMARK.json`` is
well-formed, that every metric it names is printed exactly once per
workload with its unit and a finite value, that the last output line
has the agreed shape, and that every recorded span's parent resolves.
Takes about a minute; exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

from harness import HERE, load_contract, workdir

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
LINE = re.compile(r"^\[(\S+)\] (\S+) = (\S+) (\S+)")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_contract(contract: dict) -> None:
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    names = [w["name"] for w in contract["workloads"]]
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        assert "\n" not in w["why"]
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 <= m["bound"] <= 0.25, m
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in contract["end_to_end"] + contract["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names), "a name is used twice"
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def run_benchmark(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout.splitlines()


def check_result_line(line: str, wanted: list[dict]) -> None:
    doc = json.loads(line)
    assert set(doc) == RESULT_KEYS, sorted(doc)
    assert doc["correct"] is True and doc["failed"] == 0
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        body = doc["metrics"][m["name"]]
        assert set(body) == {"value", "unit"} and body["unit"] == m["unit"]
        assert math.isfinite(body["value"]), m["name"]


def main() -> int:
    contract = load_contract()
    check_contract(contract)
    every = contract["end_to_end"] + contract["per_layer"]

    with workdir("selftest-") as tmp:
        spans_path = tmp / "spans.json"
        lines = run_benchmark(
            "--smoke", "--seed", "5",
            "--out", str(tmp / "run.json"), "--trace-out", str(spans_path),
        )
        spans = json.loads(spans_path.read_text())
        run_doc = json.loads((tmp / "run.json").read_text())["runs"][0]

    printed: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for line in lines:
        hit = LINE.match(line)
        if hit:
            wl, name, value, unit = hit.groups()
            printed.setdefault((wl, name), []).append((value, unit))
    for w in contract["workloads"]:
        for m in every:
            seen = printed.get((w["name"], m["name"]), [])
            assert len(seen) == 1, f"{w['name']} {m['name']}: printed {len(seen)}x"
            value, unit = seen[0]
            assert unit == m["unit"], (w["name"], m["name"], unit)
            assert math.isfinite(float(value)), (w["name"], m["name"], value)
    for p in run_doc["passes"]:
        assert p["failed"] == 0, p["failures"]
        if not p["traced"]:
            for m in contract["end_to_end"]:
                assert p["metrics"][m["name"]]["value"] > 0, (p["workload"], m)
        else:
            cover = p["metrics"]["trace_coverage_frac"]["value"]
            assert cover >= 0.95, (p["workload"], cover)
    assert set(json.loads(lines[-1])) == RESULT_KEYS

    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans), "span ids repeat"
    for s in spans:
        assert s["end"] >= s["start"], s
        if s["parent"] is not None:
            parent = by_id[s["parent"]]  # KeyError: parent never recorded
            assert (parent["workload"], parent["rep"]) == (s["workload"], s["rep"])
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert {s["workload"] for s in spans} == {w["name"] for w in contract["workloads"]}

    # the shape a driver sees: one workload, one pass, metrics of that pass
    first = contract["workloads"][0]["name"]
    for trace, wanted in (("0", contract["end_to_end"]), ("1", contract["per_layer"])):
        lines = run_benchmark(
            "--smoke", "--workload", first, "--seed", "6", "--seconds", "1",
            "--trace", trace,
        )
        check_result_line(lines[-1], wanted)
    print(f"selftest ok: {len(every)} metrics x {len(contract['workloads'])} "
          f"workloads, {len(spans)} spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
