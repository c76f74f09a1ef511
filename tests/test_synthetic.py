"""Synthetic VDI workload generator calibration and determinism."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.traces.stats import across_page_ratio, characterize
from repro.traces.synthetic import (
    SyntheticSpec,
    VDIWorkloadGenerator,
    generate_trace,
    trace_collection,
)

FOOTPRINT = 64 * 1024  # sectors (32 MiB)


def spec(**kw):
    base = dict(
        name="t",
        requests=6_000,
        write_ratio=0.6,
        across_ratio=0.25,
        mean_write_kb=9.0,
        footprint_sectors=FOOTPRINT,
        seed=42,
    )
    base.update(kw)
    return SyntheticSpec(**base)


class TestCalibration:
    def test_across_ratio_at_8k(self):
        t = generate_trace(spec())
        assert across_page_ratio(t, 8192) == pytest.approx(0.25, abs=0.03)

    def test_write_ratio(self):
        t = generate_trace(spec())
        assert t.write_ratio == pytest.approx(0.6, abs=0.03)

    def test_mean_write_size(self):
        t = generate_trace(spec())
        st = characterize(t, 8192)
        assert st.mean_write_kb == pytest.approx(9.0, rel=0.12)

    def test_larger_write_size_target(self):
        t = generate_trace(spec(mean_write_kb=12.0, across_ratio=0.16))
        st = characterize(t, 8192)
        assert st.mean_write_kb == pytest.approx(12.0, rel=0.12)

    def test_ratio_decreases_with_page_size(self):
        t = generate_trace(spec())
        r4 = across_page_ratio(t, 4096)
        r8 = across_page_ratio(t, 8192)
        r16 = across_page_ratio(t, 16384)
        assert r4 > r8 > r16

    def test_footprint_respected(self):
        t = generate_trace(spec())
        assert t.footprint_sectors <= FOOTPRINT

    def test_times_non_decreasing(self):
        t = generate_trace(spec())
        assert (np.diff(t.times) >= 0).all()


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace(spec())
        b = generate_trace(spec())
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.ops, b.ops)

    def test_different_seed_differs(self):
        a = generate_trace(spec(seed=1))
        b = generate_trace(spec(seed=2))
        assert not np.array_equal(a.offsets, b.offsets)


class TestMemoUnderThreads:
    def test_hammer_from_eight_threads(self):
        """``repro serve`` generates from several request threads.  Two
        more specs than the memo holds, drawn at random, so most calls
        hit and the rest evict: unguarded, a thread that hit a key
        another thread evicts a moment later dies in ``move_to_end``
        with ``KeyError``.  No thread may raise, and every trace equals
        ``memo=False``."""
        import random
        import sys
        import threading

        from repro.traces.synthetic import _TRACE_MEMO, _TRACE_MEMO_ENTRIES

        def arrays(t):
            return [a.tobytes() for a in (t.times, t.ops, t.offsets, t.sizes)]

        # tiny traces: the time goes into the memo, not the generator
        specs = [
            spec(requests=2, seed=s) for s in range(_TRACE_MEMO_ENTRIES + 2)
        ]
        want = {s: arrays(generate_trace(s, memo=False)) for s in specs}
        errors = []
        gate = threading.Barrier(8)

        def worker(n):
            rng = random.Random(n)
            try:
                gate.wait(timeout=30)
                for _ in range(6000):
                    s = rng.choice(specs)
                    if arrays(generate_trace(s)) != want[s]:
                        errors.append(f"trace for seed {s.seed} differs")
                        return
            except Exception as exc:  # what the test is looking for
                errors.append(repr(exc)[:80])

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(_TRACE_MEMO) <= _TRACE_MEMO_ENTRIES


class TestAcrossSiteDynamics:
    def test_sites_reused(self):
        gen = VDIWorkloadGenerator(spec(site_reuse=0.9))
        gen.generate()
        # with heavy reuse, far fewer sites than across requests exist
        assert len(gen._sites) < 0.25 * 6_000

    def test_no_reuse_many_sites(self):
        gen = VDIWorkloadGenerator(spec(site_reuse=0.0, write_ratio=1.0))
        gen.generate()
        assert len(gen._sites) == pytest.approx(0.25 * 6_000, rel=0.15)


class TestValidation:
    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            spec(across_ratio=1.5).validate()

    def test_bad_probability_sum(self):
        with pytest.raises(ConfigError):
            spec(p_overwrite=0.8, p_extend=0.4).validate()

    def test_tiny_footprint(self):
        with pytest.raises(ConfigError):
            spec(footprint_sectors=16).validate()

    def test_bad_zipf(self):
        with pytest.raises(ConfigError):
            spec(zipf_s=0.0).validate()

    def test_bad_hot_zones(self):
        with pytest.raises(ConfigError):
            spec(hot_zones=0).validate()


class TestSitePopulations:
    def test_small_site_pool_bounded(self):
        gen = VDIWorkloadGenerator(
            spec(requests=20_000, write_ratio=1.0, small_unaligned=0.6)
        )
        gen.generate()
        cap = max(256, FOOTPRINT // 16 // 128)
        assert len(gen._small_sites) <= cap

    def test_across_mixture_has_big_and_small_extents(self):
        gen = VDIWorkloadGenerator(spec(write_ratio=1.0))
        t = gen.generate()
        sizes = {s for _, s in gen._sites}
        assert any(s <= 4 for s in sizes), "small tails missing"
        assert any(s >= 8 for s in sizes), "bulk extents missing"

    def test_big_fraction_zero_keeps_extents_small(self):
        gen = VDIWorkloadGenerator(
            spec(across_big_fraction=0.0, write_ratio=1.0)
        )
        gen.generate()
        sizes = [s for _, s in gen._sites]
        # created at 2..4 sectors; extensions may grow them a little,
        # but never to the bulk band and never past a reference page
        assert max(sizes) <= 16
        assert sum(1 for s in sizes if s <= 4) > len(sizes) * 0.6

    def test_site_boundary_avoidance_is_best_effort(self):
        gen = VDIWorkloadGenerator(spec(write_ratio=1.0))
        gen.generate()
        boundaries = sorted(gen._site_boundaries)
        # adjacent across-site boundaries force rollbacks, so creation
        # retries away from them; under heavy zone concentration on a
        # small footprint some collisions remain (best effort)
        adjacent = sum(
            1 for a, b in zip(boundaries, boundaries[1:]) if b - a == 1
        )
        assert adjacent < len(boundaries) * 0.4


class TestSpecFromStats:
    def test_twin_matches_source_statistics(self):
        from repro.traces.stats import characterize
        from repro.traces.synthetic import spec_from_stats

        source = generate_trace(spec(seed=77, across_ratio=0.2,
                                     write_ratio=0.5, mean_write_kb=10.0))
        st = characterize(source, 8192)
        twin_spec = spec_from_stats(st, seed=5)
        twin = generate_trace(twin_spec)
        st2 = characterize(twin, 8192)
        assert st2.requests == st.requests
        assert st2.write_ratio == pytest.approx(st.write_ratio, abs=0.03)
        assert st2.across_ratio == pytest.approx(st.across_ratio, abs=0.03)
        assert st2.mean_write_kb == pytest.approx(st.mean_write_kb, rel=0.15)

    def test_twin_rescalable(self):
        from repro.traces.stats import characterize
        from repro.traces.synthetic import spec_from_stats

        source = generate_trace(spec(seed=3))
        st = characterize(source, 8192)
        small = spec_from_stats(st, requests=500)
        assert len(generate_trace(small)) == 500

    def test_empty_trace_rejected(self):
        from repro.errors import ConfigError
        from repro.traces.stats import TraceStats
        from repro.traces.synthetic import spec_from_stats

        empty = TraceStats("e", 0, 0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ConfigError):
            spec_from_stats(empty)


class TestCollection:
    def test_collection_count_and_spread(self):
        specs = trace_collection(20, footprint_sectors=FOOTPRINT, requests=800)
        assert len(specs) == 20
        ratios = [s.across_ratio for s in specs]
        assert min(ratios) >= 0.01 and max(ratios) <= 0.40
        assert max(ratios) - min(ratios) > 0.05  # actual spread

    def test_collection_traces_generate(self):
        specs = trace_collection(3, footprint_sectors=FOOTPRINT, requests=500)
        for s in specs:
            t = VDIWorkloadGenerator(s).generate()
            assert len(t) == 500
            measured = across_page_ratio(t, 8192)
            assert measured == pytest.approx(s.across_ratio, abs=0.06)


def _arrays(trace) -> list[bytes]:
    return [
        trace.name.encode(),
        *(a.tobytes() for a in (trace.times, trace.ops, trace.offsets,
                                trace.sizes)),
    ]


def _vdi_aging_spec(cfg):
    """The spec of the first chunk ``aging_style="vdi"`` ages ``cfg``
    with, caught on its way into ``generate_trace``."""
    from repro import SimConfig, make_ftl
    from repro.flash.service import FlashService
    from repro.sim import engine

    class Caught(Exception):
        pass

    def catch(spec, **kw):
        raise Caught(spec)

    sim = engine.Simulator(
        make_ftl("ftl", FlashService(cfg)),
        SimConfig(aging_style="vdi", aged_used=0.9, aged_valid=0.398),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "generate_trace", catch)
        with pytest.raises(Caught) as caught:
            sim.age_device()
    return caught.value.args[0]


def _reference_specs():
    """Every spec family the library synthesises: the six Table 2 luns
    at three seeds, the vdi aging chunks at tiny and bench footprints,
    and the tenant specs of a tenant-hashed and an lba-banded fleet."""
    import dataclasses

    from repro.config import SSDConfig
    from repro.experiments.workloads import lun_specs
    from repro.fleet import FleetConfig, compose_shards
    from repro.fleet.workload import _tenant_spec, tenant_requests

    tiny, bench = SSDConfig.tiny(), SSDConfig.preset("bench")
    for seed_base in (2023, 7, 4242):
        yield from lun_specs(tiny, scale=0.002, seed_base=seed_base)
    for cfg in (tiny, bench):
        aging = _vdi_aging_spec(cfg)
        for seed in (aging.seed, aging.seed + 1):
            # the bench chunk is ~29 k requests: its first 4 000 will do
            yield dataclasses.replace(
                aging, seed=seed, requests=min(aging.requests, 4_000)
            )
    for shard_by in ("tenant", "lba"):
        fleet = FleetConfig(shards=3, tenants=12, requests_per_tenant=40,
                            seed=9, shard_by=shard_by)
        counts = tenant_requests(fleet)
        for plan in compose_shards(fleet, tiny):
            for t in plan.tenant_ids:
                yield _tenant_spec(fleet, t, counts[t], plan.slice_sectors)


@pytest.fixture(scope="module")
def replayed_traces():
    """The reference specs' traces through the raw-stream replay (module
    scope: built before the function-scoped ``numpy_draws`` swaps it)."""
    return [
        _arrays(VDIWorkloadGenerator(s).generate()) for s in _reference_specs()
    ]


def _draw_script(rng: np.random.Generator, seed: int, n: int) -> list:
    """``n`` interleaved per-request draws (random / one- and two-argument
    integers / zipf) chosen by ``seed``, made on ``rng``."""
    import random

    script = random.Random(seed)
    widths = (1, 2, 3, 13, 4096, 2**31 + 11, 2**32)
    out = []
    for _ in range(n):
        kind = script.randrange(4)
        if kind == 0:
            out.append(float(rng.random()))
        elif kind == 1:
            out.append(int(rng.integers(script.choice(widths))))
        elif kind == 2:
            low = script.randrange(-1000, 1000)
            out.append(int(rng.integers(low, low + script.choice(widths))))
        else:
            out.append(int(rng.zipf(script.choice((1.2, 1.6, 3.0)))))
    return out


class TestRngStreamEquivalence:
    """The generator hot path replaces ``Generator.choice`` with
    CDF + ``bisect_right`` (weighted picks) and ``Generator.integers``
    (uniform picks), and makes every per-request draw from
    :class:`~repro.traces.synthetic._Draws` — numpy's scalar algorithms
    replayed over the raw PCG64 stream.  These draws MUST consume the
    identical RNG stream and return the identical values, or every
    golden report and bench digest built from generated traces silently
    changes.  Pin the equivalences numerically, against the installed
    numpy."""

    @pytest.mark.parametrize("warmup", ["none", "odd-32bit", "permutation"])
    def test_replay_equals_generator(self, warmup):
        """≥ 200 seeds per warm-up; the two warm-ups that leave a buffered
        32-bit half (``has_uint32``) exercise the replay's take-over."""
        from repro.traces.synthetic import _Draws

        def start(seed):
            rng = np.random.default_rng(seed)
            if warmup == "odd-32bit":
                for _ in range(1 + 2 * (seed % 3)):
                    rng.integers(1000)
            elif warmup == "permutation":
                rng.permutation(64)
            return rng

        buffered = 0
        for seed in range(210):
            ref = start(seed)
            buffered += ref.bit_generator.state["has_uint32"]
            want = _draw_script(ref, seed, 120)
            assert _draw_script(_Draws(start(seed)), seed, 120) == want, seed
        if warmup == "odd-32bit":
            assert buffered == 210
        elif warmup == "permutation":
            assert buffered > 0

    def test_empty_range_raises_like_numpy(self):
        from repro.traces.synthetic import _Draws

        d = _Draws(np.random.default_rng(1))
        rng = np.random.default_rng(1)
        for args in ((0,), (-3,), (5, 5), (5, 2)):
            with pytest.raises(ValueError) as want:
                rng.integers(*args)
            with pytest.raises(ValueError, match=str(want.value)):
                d.integers(*args)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            d.integers(2**32 + 1)
        with pytest.raises(ValueError):
            d.zipf(1.0)

    def test_only_pcg64_is_replayed(self):
        from repro.traces.synthetic import _Draws

        with pytest.raises(TypeError, match="PCG64"):
            _Draws(np.random.Generator(np.random.MT19937(1)))
        with pytest.raises(TypeError, match="PCG64"):
            _Draws(np.random.Generator(np.random.Philox(1)))

    def test_generate_runs_once(self):
        from repro.errors import ReproError

        gen = VDIWorkloadGenerator(spec(requests=50))
        assert len(gen.generate()) == 50
        with pytest.raises(ReproError, match="runs once"):
            gen.generate()

    def test_every_spec_family_equals_numpy_draws(
        self, replayed_traces, numpy_draws
    ):
        """End to end: the lun, aging and tenant traces drawn call by
        call from ``Generator`` are byte-identical to the replay's."""
        reference = [
            _arrays(VDIWorkloadGenerator(s).generate())
            for s in _reference_specs()
        ]
        assert len(reference) == len(replayed_traces) > 40
        for got, want in zip(replayed_traces, reference):
            assert got == want, want[0]

    def test_weighted_choice_equals_cdf_bisect(self):
        from bisect import bisect_right

        from repro.traces.synthetic import _weights_cdf

        weights = np.array([0.05, 0.3, 0.02, 0.43, 0.2])
        p = weights / weights.sum()
        cdf = _weights_cdf(weights)
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        for _ in range(2000):
            assert int(a.choice(len(p), p=p)) == bisect_right(cdf, b.random())
        # both streams are at the same position afterwards
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_uniform_choice_equals_integers(self):
        arr = np.array([8, 12, 16])
        a = np.random.default_rng(77)
        b = np.random.default_rng(77)
        for _ in range(2000):
            assert int(a.choice(arr)) == int(arr[b.integers(len(arr))])
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_generate_digest_pinned(self):
        """End-to-end pin: the optimized generator still produces this
        exact trace (sha256 over all four arrays)."""
        import hashlib

        t = generate_trace(spec(requests=2500, seed=11))
        h = hashlib.sha256()
        for arr in (t.times, t.ops, t.offsets, t.sizes):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == (
            "5d77dc0283bf82c4a2cc56abd18c9a48a31d6d4507f1fa349229c4fc649970c5"
        )
