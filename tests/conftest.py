"""Shared fixtures: tiny devices, small calibrated traces, FTL factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SSDConfig,
    SimConfig,
    SyntheticSpec,
    Trace,
    generate_trace,
    make_ftl,
)
from repro.flash.service import FlashService


@pytest.fixture(autouse=True)
def no_images_from_earlier_tests():
    """The aged-device image cache is per process: without this, a test
    that ages a device would restore whatever an earlier test aged
    under the same key instead of exercising the aging it is about."""
    from repro.sim.image import IMAGES

    IMAGES.clear()


@pytest.fixture
def tiny_cfg() -> SSDConfig:
    return SSDConfig.tiny()


@pytest.fixture
def micro_cfg() -> SSDConfig:
    """Very small device: GC kicks in after a few hundred page writes."""
    return SSDConfig(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size_bytes=8 * 1024,
        write_buffer_bytes=0,
    )


@pytest.fixture
def service(tiny_cfg) -> FlashService:
    return FlashService(tiny_cfg)


@pytest.fixture
def micro_service(micro_cfg) -> FlashService:
    return FlashService(micro_cfg)


def build_ftl(scheme: str, cfg: SSDConfig, **kw):
    """Fresh (service, ftl) pair for a scheme."""
    service = FlashService(cfg)
    return service, make_ftl(scheme, service, track_payload=True, **kw)


@pytest.fixture
def small_trace(tiny_cfg) -> Trace:
    spec = SyntheticSpec(
        "small",
        1_500,
        0.6,
        0.25,
        9.0,
        footprint_sectors=int(tiny_cfg.logical_sectors * 0.7),
        seed=11,
    )
    return generate_trace(spec)


@pytest.fixture
def oracle_sim_cfg() -> SimConfig:
    return SimConfig(check_oracle=True)


@pytest.fixture
def scalar_reference(monkeypatch):
    """Switch every fused kernel off for one test: reads go through
    ``Simulator.process`` and aging through the generic
    ``BaseFTL.write_run`` loop over ``write`` — the reference the
    kernels must match bit for bit."""
    from repro.core.across import AcrossFTL
    from repro.ftl.base import BaseFTL
    from repro.ftl.pagemap import PageMapFTL
    from repro.sim.kernels import BatchReadKernel

    monkeypatch.setattr(
        BatchReadKernel, "build", classmethod(lambda cls, sim: None)
    )
    # (MRSM has no fused kernel: it ages through the generic loop)
    for scheme in (PageMapFTL, AcrossFTL):
        monkeypatch.setattr(scheme, "write_run", BaseFTL.write_run)


def random_extents(rng: np.random.Generator, n: int, max_sector: int, spp: int):
    """Random (offset, size) extents mixing aligned, across and large."""
    out = []
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 0:  # across-page
            boundary = int(rng.integers(1, max_sector // spp)) * spp
            left = int(rng.integers(1, spp // 2))
            right = int(rng.integers(1, spp // 2))
            size = min(left + right, spp)
            out.append((boundary - left, size))
        elif kind == 1:  # sub-page
            page = int(rng.integers(max_sector // spp))
            size = int(rng.integers(1, spp))
            rel = int(rng.integers(0, spp - size + 1))
            out.append((page * spp + rel, size))
        else:  # multi-page
            page = int(rng.integers(max_sector // spp - 4))
            size = int(rng.integers(1, 4 * spp))
            out.append((page * spp, max(1, size)))
    return out
