"""Pinned report digests of the sequential loop on the tiny device.

The sequential loop (:meth:`repro.sim.engine.Simulator._run_sequential`)
may be restructured, but never for behaviour: every scheme x queue
depth x data cache combination below must reproduce the digest it had
when the pins were recorded, on an aged device whose replay runs GC.
So must one oracle-checked run per scheme (its ``check_read_digest``
included), one run per scheme with the request log, counter snapshots
and QoS streams on, and one run per scheme with full observability and
latency attribution.  The observability runs also pin the span export
(Chrome trace JSON and JSONL lines) and the whole bus event stream in
emission order — ``RequestArrive``, ``BufferLookup``, FTL decisions,
flash ops, ``RequestPhases``, ``RequestComplete`` — so a change that
keeps the counts but moves an event is caught too.  The trace is the
one :mod:`tests.test_frontend_pins` replays.

Regenerate (only for a change that is *meant* to alter sequential
reports)::

    PYTHONPATH=src python tests/test_sequential_pins.py
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.config import CheckConfig, ObservabilityConfig, SimConfig, SSDConfig
from repro.experiments.benchgate import report_digest
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from test_frontend_pins import CACHE_BYTES, SCHEMES, TRACE

QUEUE_DEPTHS = (None, 4)

#: aged so the replay itself runs garbage collection
AGED = SimConfig(aged_used=0.9, aged_valid=0.4, seed=7)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def sequential_digest(scheme, sim_cfg, *, cache: bool) -> str:
    """The run's report digest; with observability on, also the span
    export's and the bus event stream's, joined by ``/``."""
    cfg = SSDConfig.tiny().replace(
        write_buffer_bytes=CACHE_BYTES if cache else 0
    )
    sim = Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)
    events: list = []
    if sim.obs is not None:
        sim.obs.bus.subscribe(None, events.append)
    parts = [report_digest(sim.run(TRACE))[:20]]
    if sim.obs is not None:
        spans = sim.obs.recorder
        parts.append(_sha(
            json.dumps(spans.to_chrome(), sort_keys=True)
            + "".join(json.dumps(span) + "\n" for span in spans.spans)
        ))
        parts.append(_sha("\n".join(map(repr, events))))
    return "/".join(parts)


def grid():
    for scheme, qd, cache in itertools.product(
        SCHEMES, QUEUE_DEPTHS, (True, False)
    ):
        key = f"{scheme}-qd{qd}-{'cache' if cache else 'nocache'}"
        yield key, scheme, dataclasses.replace(AGED, queue_depth=qd), cache
    for scheme in SCHEMES:
        sim_cfg = dataclasses.replace(
            AGED,
            check=CheckConfig(enabled=True, every=50),
            check_oracle=True,
        )
        yield f"{scheme}-oracle", scheme, sim_cfg, True
        sim_cfg = dataclasses.replace(
            AGED,
            queue_depth=4,
            record_requests=True,
            snapshot_every=64,
            qos_streams=(1000, 2000),
        )
        yield f"{scheme}-log", scheme, sim_cfg, True
        sim_cfg = dataclasses.replace(
            AGED,
            queue_depth=4,
            observability=ObservabilityConfig.full(sample_interval_ms=5.0),
        )
        yield f"{scheme}-obs", scheme, sim_cfg, True


CASES = {key: rest for key, *rest in grid()}

PINS = {
    "ftl-qdNone-cache": "c2fe25882a8419f89cee",
    "ftl-qdNone-nocache": "7b749a92cf746c8de2a8",
    "ftl-qd4-cache": "9835ea57662bb905dbb0",
    "ftl-qd4-nocache": "dc83f14048956d59e009",
    "mrsm-qdNone-cache": "a32b70ce667cb9007bbd",
    "mrsm-qdNone-nocache": "610d1a88cff027112862",
    "mrsm-qd4-cache": "afc4559b8420a1fe95af",
    "mrsm-qd4-nocache": "1059214468eba33d592a",
    "across-qdNone-cache": "415da1e7a9542db6297a",
    "across-qdNone-nocache": "f571bbe9fd54e53f3dae",
    "across-qd4-cache": "2e2472b79e83d5279854",
    "across-qd4-nocache": "7d58295df5509b1b7796",
    "ftl-oracle": "6022ec283552eff2dd48",
    "ftl-log": "df37f94ac0629452fcb1",
    "ftl-obs": "4f102ed1a220ba22f2c9/fc1a000975b793778931/a879bd6d6410b6b7844a",
    "mrsm-oracle": "d9b1126af3266e2281dd",
    "mrsm-log": "2c4bc36bcf3a94c230c8",
    "mrsm-obs": "20d0edf5c0aba273980f/68d855d31ce71bfabdf4/e353bd6da11da4636ab4",
    "across-oracle": "26214f833ff36a91f027",
    "across-log": "a4bc87d47bd95b267421",
    "across-obs": "0e7d439cda4f2f2c120d/9297ef89aa93ebfb7e32/06913d3543b1069b3e10",
}


@pytest.mark.parametrize("key", list(CASES))
def test_sequential_report_is_pinned(key):
    scheme, sim_cfg, cache = CASES[key]
    assert sequential_digest(scheme, sim_cfg, cache=cache) == PINS[key]


if __name__ == "__main__":
    print("PINS = {")
    for key, (scheme, sim_cfg, cache) in CASES.items():
        print(f'    "{key}": "{sequential_digest(scheme, sim_cfg, cache=cache)}",')
    print("}")
