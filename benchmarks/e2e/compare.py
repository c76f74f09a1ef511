"""Compare sets of benchmark runs.

    python3 benchmarks/e2e/compare.py A.json B.json [more.json ...]

Each file is a set: what ``run.py --out FILE`` wrote, one run appended
per invocation.  Every later set is compared against the first.  Per
workload and metric the tool prints both medians, the ratio with its
base, and one of

* ``ok``         no worse than the base by more than the metric's bound;
* ``regressed``  worse by more than the bound;
* ``unresolved`` within the bound, but the run-to-run spread (distance
  between the quartiles over the median, of either set) is wider than
  the bound, and not every run of the set beats every run of the base.

The exit code is 1 when anything regressed.  Digests of runs that share
a seed are compared too and reported as ``identical`` or ``changed``;
a changed digest is information, not a failure, because a modelling
change moves it legitimately.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from harness import iqr_share, load_contract, median

#: the numbers a user of one workload sees; BENCHMARK.json lists them
#: per layer because its end-to-end metrics must exist on every
#: workload.  Times take the bound of ``wall_s``.  The two ``sim_``
#: ratios are modelled outputs: a host-speed change must leave them
#: exactly as they were, so their bound is 0.
SCOPED_TIMES = (
    "sweep_cold_s",
    "sweep_warm_s",
    "serve_cold_p50_ms",
    "serve_warm_p50_ms",
    "serve_warm_p90_ms",
)
SCOPED_EXACT = ("sim_response_vs_ftl", "sim_erases_vs_ftl")


def load_set(path: str) -> dict:
    """{(workload, metric): [value per run]} plus digests by seed."""
    doc = json.loads(Path(path).read_text())
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    digests: dict[tuple[str, int], dict] = {}
    for run in doc["runs"]:
        for p in run["passes"]:
            for name, body in p["metrics"].items():
                values[p["workload"], name].append(body["value"])
            digests[p["workload"], run["seed"]] = p["digests"]
    return {"values": values, "digests": digests, "runs": len(doc["runs"])}


def verdict(base, new, better: str, bound: float) -> tuple[float, str]:
    """(ratio new/base, status) for one workload and metric."""
    mb, mn = median(base), median(new)
    ratio = mn / mb if mb else float("inf")
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse > bound:
        return ratio, "regressed"
    if max(iqr_share(base), iqr_share(new)) > bound:
        if better == "lower":
            clear = max(new) < min(base)
        else:
            clear = min(new) > max(base)
        if not clear:
            return ratio, "unresolved"
    return ratio, "ok"


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2:
        print(__doc__)
        return 2
    contract = load_contract()
    specs = {m["name"]: m for m in contract["end_to_end"]}
    for m in contract["per_layer"]:
        if m["name"] in SCOPED_TIMES:
            specs[m["name"]] = dict(m, bound=specs["wall_s"]["bound"])
        elif m["name"] in SCOPED_EXACT:
            specs[m["name"]] = dict(m, bound=0.0)
    workloads = [w["name"] for w in contract["workloads"]]
    base = load_set(paths[0])
    counts: dict[str, int] = defaultdict(int)
    for path in paths[1:]:
        new = load_set(path)
        print(
            f"base {paths[0]} ({base['runs']} runs)  vs  "
            f"{path} ({new['runs']} runs)"
        )
        print(
            f"{'workload':16} {'metric':20} {'base':>12} {'new':>12} "
            f"{'new/base':>9} {'spread':>14}  status"
        )
        for wl in workloads:
            for name, spec in specs.items():
                a = base["values"].get((wl, name))
                b = new["values"].get((wl, name))
                if not a or not b or not any(a):
                    continue  # not measured, or a layer the workload skips
                ratio, status = verdict(a, b, spec["better"], spec["bound"])
                counts[status] += 1
                print(
                    f"{wl:16} {name:20} {median(a):12.6g} {median(b):12.6g} "
                    f"{ratio:9.4f} {iqr_share(a):6.3f}/{iqr_share(b):<6.3f}"
                    f"  {status} (bound {spec['bound']:g}, {spec['unit']})"
                )
        same = changed = 0
        for key, digests in new["digests"].items():
            if key in base["digests"]:
                if digests == base["digests"][key]:
                    same += 1
                else:
                    changed += 1
                    print(f"digests changed: {key[0]} seed {key[1]}")
        print(f"digests: {same} identical, {changed} changed (same workload and seed)")
    print(
        ", ".join(f"{counts[k]} {k}" for k in ("ok", "unresolved", "regressed"))
    )
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
