"""Golden-report equivalence for the bench-gate scenario set.

``tests/data/golden_hotpath.json`` pins the *entire* canonical
:class:`~repro.metrics.report.SimulationReport` of every pinned
benchmark scenario (fig09 replays per scheme, the faults-stress preset
and the scale-0.02 hotpath replay).  Any hot-path optimisation must
keep these reports bit-identical — this is the proof behind the
"≥2x faster, same output" contract of the performance overhaul, and
the same fixture backs the digests in ``BENCH_baseline.json``.

Regenerate (only after an *intentional* behaviour change):

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.experiments.benchgate import scenarios, canonical_report_dict
    doc = {"format": 1, "reports": {
        sc.name: canonical_report_dict(sc.run()) for sc in scenarios()
    }}
    with open("tests/data/golden_hotpath.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    EOF

...then regenerate ``BENCH_baseline.json`` with ``repro bench`` too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.benchgate import (
    canonical_report_dict,
    report_digest,
    scenarios,
)

FIXTURE = Path(__file__).parent / "data" / "golden_hotpath.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    doc = json.loads(FIXTURE.read_text())
    assert doc["format"] == 1
    return doc["reports"]


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(sc.name for sc in scenarios())


@pytest.mark.parametrize("sc", scenarios(), ids=lambda sc: sc.name)
def test_report_matches_golden(sc, golden):
    """Every scenario reproduces its golden report bit for bit."""
    report = sc.run()
    got = canonical_report_dict(report)
    want = golden[sc.name]
    if got != want:
        diff = [
            f"{key}: golden={want.get(key)!r} got={got.get(key)!r}"
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)
        ]
        pytest.fail(
            f"{sc.name}: simulation output drifted from the golden "
            f"fixture in {len(diff)} key(s):\n  " + "\n  ".join(diff[:20])
        )
    # the digest is what BENCH_baseline.json pins; tie the two together
    blob = json.dumps(want, sort_keys=True).encode()
    assert report_digest(report) == hashlib.sha256(blob).hexdigest()
