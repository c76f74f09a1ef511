"""Pinned report digests of the event frontend on the tiny device.

The event loop (:meth:`repro.sim.engine.Simulator._run_frontend`) may be
rewritten for speed, but never for behaviour: every scheme x queue
depth x dispatch window x read priority x data cache combination below
must reproduce the digest it had when the pins were recorded, and so
must one oracle-checked run per scheme.  The trace has many requests
per timestamp, so the equal-time order (complete, then arrive, then
issue) and the FIFO order of issues at one instant are both exercised.

Regenerate (only for a change that is *meant* to alter frontend
reports)::

    PYTHONPATH=src python tests/test_frontend_pins.py
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.config import CheckConfig, FrontendConfig, SimConfig, SSDConfig
from repro.experiments.benchgate import report_digest
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.sim.engine import Simulator
from repro.traces.model import OP_READ, OP_TRIM, OP_WRITE, Trace
from repro.units import KIB

SCHEMES = ("ftl", "mrsm", "across")
QUEUE_DEPTHS = (1, 8, 32)
WINDOWS = (1, 16)

#: a DRAM data cache small enough to evict during the replay
CACHE_BYTES = 256 * KIB


def pin_trace(n: int = 400, seed: int = 33) -> Trace:
    """Writes, reads and TRIMs over a small footprint (many hazards),
    arriving on a coarse clock so several share each timestamp."""
    rng = np.random.default_rng(seed)
    ops = rng.choice(
        [OP_WRITE, OP_READ, OP_TRIM], size=n, p=[0.45, 0.5, 0.05]
    ).astype(np.uint8)
    offsets = rng.integers(0, 3000, n).astype(np.int64)
    sizes = rng.integers(1, 33, n).astype(np.int64)
    times = np.sort(rng.integers(0, 80, n)).astype(np.float64) * 0.5
    return Trace("pins", times, ops, offsets, sizes)


TRACE = pin_trace()


def frontend_digest(scheme, sim_cfg, *, cache: bool) -> str:
    cfg = SSDConfig.tiny().replace(
        write_buffer_bytes=CACHE_BYTES if cache else 0
    )
    sim = Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)
    return report_digest(sim.run(TRACE))[:20]


def grid():
    for scheme, qd, window, rp, cache in itertools.product(
        SCHEMES, QUEUE_DEPTHS, WINDOWS, (True, False), (True, False)
    ):
        key = (
            f"{scheme}-qd{qd}-w{window}-"
            f"{'rp' if rp else 'fifo'}-{'cache' if cache else 'nocache'}"
        )
        sim_cfg = SimConfig(
            queue_depth=qd,
            frontend=FrontendConfig(
                enabled=True, window=window, read_priority=rp
            ),
        )
        yield key, scheme, sim_cfg, cache
    for scheme in SCHEMES:
        sim_cfg = dataclasses.replace(
            SimConfig(queue_depth=8).replace_frontend(
                enabled=True, window=16
            ),
            check=CheckConfig(enabled=True, every=50),
            check_oracle=True,
        )
        yield f"{scheme}-oracle", scheme, sim_cfg, True


CASES = {key: rest for key, *rest in grid()}

PINS = {
    "ftl-qd1-w1-rp-cache": "e64baf7e8ee369ee388d",
    "ftl-qd1-w1-rp-nocache": "a8060cc9195dac724f37",
    "ftl-qd1-w1-fifo-cache": "e64baf7e8ee369ee388d",
    "ftl-qd1-w1-fifo-nocache": "a8060cc9195dac724f37",
    "ftl-qd1-w16-rp-cache": "1eff26f172f5408c95a6",
    "ftl-qd1-w16-rp-nocache": "337f92877e767ee61b72",
    "ftl-qd1-w16-fifo-cache": "1eff26f172f5408c95a6",
    "ftl-qd1-w16-fifo-nocache": "337f92877e767ee61b72",
    "ftl-qd8-w1-rp-cache": "5d7b059cc8161391f6da",
    "ftl-qd8-w1-rp-nocache": "90aef260f6c4e4279e4c",
    "ftl-qd8-w1-fifo-cache": "89a807e899ae4a9b4cae",
    "ftl-qd8-w1-fifo-nocache": "ee601a85161d3873993e",
    "ftl-qd8-w16-rp-cache": "d6fcd17a4fa4c91a046f",
    "ftl-qd8-w16-rp-nocache": "597895a8e411d72c252c",
    "ftl-qd8-w16-fifo-cache": "60a6b9c9d34b056eb45a",
    "ftl-qd8-w16-fifo-nocache": "56e96fa4079a908e61b1",
    "ftl-qd32-w1-rp-cache": "af820827b01325c74b89",
    "ftl-qd32-w1-rp-nocache": "ae218f62ee7ba29f641a",
    "ftl-qd32-w1-fifo-cache": "7be626d40a3e0f05ee0b",
    "ftl-qd32-w1-fifo-nocache": "69d06e4345986088c7eb",
    "ftl-qd32-w16-rp-cache": "fa00753ba971160b0f02",
    "ftl-qd32-w16-rp-nocache": "ee86187e10639b0d2942",
    "ftl-qd32-w16-fifo-cache": "432856856e01455b4786",
    "ftl-qd32-w16-fifo-nocache": "b47afc29cf7b10cdcd49",
    "mrsm-qd1-w1-rp-cache": "9d09aa1d3c238f186d91",
    "mrsm-qd1-w1-rp-nocache": "82615f0e2291d3b1da79",
    "mrsm-qd1-w1-fifo-cache": "9d09aa1d3c238f186d91",
    "mrsm-qd1-w1-fifo-nocache": "82615f0e2291d3b1da79",
    "mrsm-qd1-w16-rp-cache": "c2756ca9dff3a4895318",
    "mrsm-qd1-w16-rp-nocache": "98a8dfed1eaa053953ad",
    "mrsm-qd1-w16-fifo-cache": "c2756ca9dff3a4895318",
    "mrsm-qd1-w16-fifo-nocache": "98a8dfed1eaa053953ad",
    "mrsm-qd8-w1-rp-cache": "20fc5244cca5d99ab474",
    "mrsm-qd8-w1-rp-nocache": "8112c8e71fe9402e2b19",
    "mrsm-qd8-w1-fifo-cache": "74852bf41fcd5d658a7b",
    "mrsm-qd8-w1-fifo-nocache": "126e4a7f4a7a3642a7ba",
    "mrsm-qd8-w16-rp-cache": "430bc45c64be630e5929",
    "mrsm-qd8-w16-rp-nocache": "abf396a61cbe81ff0432",
    "mrsm-qd8-w16-fifo-cache": "d1ee316e2950d3b48b0a",
    "mrsm-qd8-w16-fifo-nocache": "444b169cd088c2797fee",
    "mrsm-qd32-w1-rp-cache": "93784e9b8f3e83791dd5",
    "mrsm-qd32-w1-rp-nocache": "b4a27d8035cca2b72ce9",
    "mrsm-qd32-w1-fifo-cache": "17f9b5305fb3bfe554d4",
    "mrsm-qd32-w1-fifo-nocache": "b9a7017a38d6da0fbd58",
    "mrsm-qd32-w16-rp-cache": "160d77dde48ae01848d4",
    "mrsm-qd32-w16-rp-nocache": "7bd122a0e80ff5fd7a14",
    "mrsm-qd32-w16-fifo-cache": "9aaf72c29089d8ef5fda",
    "mrsm-qd32-w16-fifo-nocache": "9a4ad0b2df87f1fc8a91",
    "across-qd1-w1-rp-cache": "85a40c70b16b2ae0106f",
    "across-qd1-w1-rp-nocache": "601330d03518775fe763",
    "across-qd1-w1-fifo-cache": "85a40c70b16b2ae0106f",
    "across-qd1-w1-fifo-nocache": "601330d03518775fe763",
    "across-qd1-w16-rp-cache": "9e218ff34a0a60cb5919",
    "across-qd1-w16-rp-nocache": "37449ea43a72b640e3b4",
    "across-qd1-w16-fifo-cache": "9e218ff34a0a60cb5919",
    "across-qd1-w16-fifo-nocache": "37449ea43a72b640e3b4",
    "across-qd8-w1-rp-cache": "d3643322313b1ecb8dea",
    "across-qd8-w1-rp-nocache": "8243a72c3bd671ab12bf",
    "across-qd8-w1-fifo-cache": "a74973e1cc06fee0b03e",
    "across-qd8-w1-fifo-nocache": "26e03da6061a5125900a",
    "across-qd8-w16-rp-cache": "7f22e0c8a455a16ba567",
    "across-qd8-w16-rp-nocache": "60be37076f13688b3d00",
    "across-qd8-w16-fifo-cache": "ca1530c151d6e7c8b43c",
    "across-qd8-w16-fifo-nocache": "788c94596900e046748f",
    "across-qd32-w1-rp-cache": "1d09e219f52a1622b0f1",
    "across-qd32-w1-rp-nocache": "488b5c97213fca5284ce",
    "across-qd32-w1-fifo-cache": "a6ae06bb7ea3b305161e",
    "across-qd32-w1-fifo-nocache": "6803f4a5abe4bec4105e",
    "across-qd32-w16-rp-cache": "14dd10778c5087d161d4",
    "across-qd32-w16-rp-nocache": "f18d61d46daa8614bab1",
    "across-qd32-w16-fifo-cache": "7bfe496d19cd59d48db4",
    "across-qd32-w16-fifo-nocache": "60d4a8b63a8832370914",
    "ftl-oracle": "87a3de4845f4ddd753ab",
    "mrsm-oracle": "c61e620c496e4d7342dd",
    "across-oracle": "03c88e7626e57e007233",
}


@pytest.mark.parametrize("key", list(CASES))
def test_frontend_report_is_pinned(key):
    scheme, sim_cfg, cache = CASES[key]
    assert frontend_digest(scheme, sim_cfg, cache=cache) == PINS[key]


if __name__ == "__main__":
    print("PINS = {")
    for key, (scheme, sim_cfg, cache) in CASES.items():
        print(f'    "{key}": "{frontend_digest(scheme, sim_cfg, cache=cache)}",')
    print("}")
