"""End-to-end benchmark of the simulator as a host program.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--trace-out FILE]

Runs the workloads named in ``BENCHMARK.json`` from this one process,
checks that their outputs are correct, prints every metric by name with
its unit, and ends with one JSON line.  ``--trace 0`` is the untraced
pass (end-to-end metrics), ``--trace 1`` the traced pass (per-layer
metrics, spans recorded here around the calls into each layer); without
``--trace`` both run, untraced first.  All times are host wall-clock
unless the name starts with ``sim_``.  See README.md beside this file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# numpy's BLAS must not start threads that compete with the two
# simulator workers; this has to happen before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

sys.path.insert(0, str(harness.REPO / "src"))
try:
    import numpy  # noqa: E402
    import wl_replay  # noqa: E402
    import wl_serve  # noqa: E402
    import wl_sweep  # noqa: E402
    from repro.experiments.benchgate import calibrate  # noqa: E402
except ImportError as exc:
    # no simulator beside the benchmark: nothing to measure
    print(f"benchmarks/e2e: cannot import the simulator: {exc}", file=sys.stderr)
    sys.exit(2)

WORKLOADS = {
    "replay-steady": lambda p: wl_replay.run(p, frontend=False),
    "replay-frontend": lambda p: wl_replay.run(p, frontend=True),
    "aged-sweep": wl_sweep.run,
    "serve-fleet": wl_serve.run,
}

#: calibration drift beyond this marks the pass ``noisy`` (not failed)
NOISY_DRIFT = 0.10


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=harness.REPO, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # a plain checkout is not a repository


def run_pass(
    name: str, traced: bool, args, contract: dict, tracer, setup_once: float
) -> dict:
    """One pass over one workload; returns its result document."""
    p = harness.Pass(
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        sizes=harness.SMOKE if args.smoke else harness.FULL,
        tracer=tracer,
        setup_once=setup_once,
    )
    label = "traced" if traced else "untraced"
    print(f"[{name}] {label} pass, seed {args.seed}", flush=True)
    before = calibrate()
    try:
        WORKLOADS[name](p)
    except Exception as exc:  # report the failure as a failed operation
        traceback.print_exc()
        p.checks.op(False, f"workload raised {type(exc).__name__}: {exc}")
    finally:
        tracer.recording = False
    after = calibrate()
    noisy = abs(after - before) / before > NOISY_DRIFT

    p.metrics["peak_rss_mb"] = harness.peak_rss_mb()
    p.metrics["host_calibration"] = before
    p.metrics["failed_frac"] = p.checks.failed / max(1, p.checks.attempted)
    wanted = contract["per_layer"] if traced else contract["end_to_end"]
    metrics = {}
    for spec in wanted:
        value = p.metrics.get(spec["name"])
        if value is None:
            # a layer this workload does not cross spends nothing in it;
            # an end-to-end metric has no such excuse
            if not traced:
                p.checks.op(False, f"{spec['name']} was not measured")
            value = 0.0
        if not math.isfinite(value):
            p.checks.op(False, f"{spec['name']} is not finite")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    unknown = set(p.metrics) - {s["name"] for k in ("end_to_end", "per_layer")
                                for s in contract[k]}
    if unknown:
        p.checks.op(False, f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    for metric, body in metrics.items():
        line = f"[{name}] {metric} = {body['value']:.6g} {body['unit']}"
        reps = p.samples.get(metric)
        if reps and len(reps) > 1:
            line += (
                f"  (min {min(reps):.6g}, median {harness.median(reps):.6g}, "
                f"spread {harness.rel_range(reps):.3f}, n {len(reps)})"
            )
        print(line)
    for key, digest in sorted(p.digests.items()):
        print(f"[{name}] digest {key} {digest[:16]}")
    print(
        f"[{name}] {p.checks.attempted} operations, {p.checks.failed} failed, "
        f"calibration {before:.4g} -> {after:.4g}"
        + (" NOISY" if noisy else ""),
        flush=True,
    )
    return {
        "workload": name,
        "traced": traced,
        "metrics": metrics,
        "samples": p.samples,
        "digests": p.digests,
        "attempted": p.checks.attempted,
        "failed": p.checks.failed,
        "failures": p.checks.failures,
        "calibration": [before, after],
        "noisy": noisy,
    }


def main(argv=None) -> int:
    contract = harness.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed work per pass; reps repeat until it is reached "
        "(default: run_seconds of BENCHMARK.json, 0 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced pass only, 1: traced pass only (default: both)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tenth-size workloads, one rep: checks the plumbing, not speed",
    )
    parser.add_argument("--out", help="append this run's document to FILE")
    parser.add_argument("--trace-out", help="write the recorded spans to FILE")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(contract["run_seconds"])

    harness.warm_up()
    setup_once = time.perf_counter() - _T0
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    tracer = harness.Tracer()
    passes = []
    for name in names:
        for traced in (False, True) if args.trace is None else (bool(args.trace),):
            passes.append(run_pass(name, traced, args, contract, tracer, setup_once))

    run_doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git": git_revision(),
            "workers": wl_sweep.JOBS,
        },
        "passes": passes,
    }
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"format": 1, "runs": []}
        doc["runs"].append(run_doc)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(tracer.spans) + "\n")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {}
    for p in passes:
        for metric, body in p["metrics"].items():
            key = metric if args.workload else f"{p['workload']}/{metric}"
            metrics[key] = body
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # a TERM from outside unwinds like any other exit, so pools and the
    # server are closed by their ``with`` blocks instead of orphaned
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    code = 1
    try:
        code = main()
    except SystemExit as exc:  # argparse (2), SIGTERM (143)
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        traceback.print_exc()
    finally:
        # on every path out, errors too: nothing this run started may
        # still be alive once it has exited.  ``os._exit`` because the
        # interpreter's own shutdown would run the finalizers of any
        # semaphore an interrupted pool left behind, and each of those
        # starts a new resource tracker that nobody waits for
        harness.stop_children()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
