"""Aged-device images (repro.sim.image): the device-state seam, the
image, its two-tier cache and the key that decides what may share one.

The proof obligations: a device filled by ``load_state()`` is the aged
device field by field (order of every dict, LRU and deque included),
replays to the digest of the uninterrupted run, and leaves the cached
image untouched — for every imageable scheme x GC policy x aging style
x replay loop; a snapshot taken mid-run at the FTL level resumes
likewise.  Then the cache's edges: which ``SimConfig`` fields stay out
of the key, which modes stay out of the cache, and what a damaged
on-disk tier does (miss, rebuild, valid overwrite).
"""

import dataclasses
import gc
import multiprocessing
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.config import (
    GC_POLICIES,
    BatchConfig,
    CheckConfig,
    FaultConfig,
    FrontendConfig,
    ObservabilityConfig,
    SimConfig,
    SSDConfig,
)
from repro.core.across import AcrossFTL
from repro.experiments.benchgate import report_digest
from repro.experiments.parallel import (
    ResultStore,
    RunSpec,
    execute_runs,
    images_line,
)
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.metrics.report import SimulationReport
from repro.sim import image as image_mod
from repro.sim.engine import Simulator
from repro.sim.image import (
    IMAGES,
    REPLAY_ONLY_FIELDS,
    DeviceImage,
    ImageCache,
    device_geometry,
    device_state,
    image_key,
    load_device_state,
    state_diff,
)
from repro.traces.synthetic import SyntheticSpec, generate_trace

SCHEMES = ("ftl", "mrsm", "across")

#: the tiny preset with a mapping cache smaller than the tables, so
#: translation pages, LRU order and evictions are part of every image
CFG = SSDConfig.tiny().replace(mapping_cache_entries=2048)

#: the device of ``benchmarks/e2e``
BENCH_CFG = dataclasses.replace(SSDConfig.bench_default(), blocks_per_plane=8)

#: the paper's steady state (90 % used / 39.8 % valid): GC has run
AGED = SimConfig(aged_used=0.90, aged_valid=0.398, aging_style="vdi")

TRACE = generate_trace(
    SyntheticSpec(
        "image",
        500,
        0.6,
        0.25,
        9.0,
        footprint_sectors=int(CFG.logical_sectors * 0.7),
        seed=5,
    )
)


def build(scheme, cfg=CFG, sim_cfg=AGED, image_dir=None, **ftl_kw):
    ftl = make_ftl(scheme, FlashService(cfg), **ftl_kw)
    return Simulator(ftl, sim_cfg, image_dir=image_dir)


def aged(scheme, cfg=CFG, sim_cfg=AGED, image_dir=None, **ftl_kw):
    sim = build(scheme, cfg, sim_cfg, image_dir, **ftl_kw)
    sim.age_device()
    return sim


def cached_image(sim) -> DeviceImage:
    hit = IMAGES.fetch(image_key(sim.ftl, sim.sim_cfg), device_geometry(sim.ftl))
    assert hit is not None
    return hit[0]


# ----------------------------------------------------------------------
# proof obligations (a)-(c): restore == aging, for the whole grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("frontend", [False, True], ids=["sequential", "frontend"])
@pytest.mark.parametrize("style", ["aligned", "vdi"])
@pytest.mark.parametrize("policy", GC_POLICIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_restored_device_is_the_aged_device(scheme, policy, style, frontend):
    cfg = CFG.replace(gc_policy=policy)
    sim_cfg = dataclasses.replace(AGED, aging_style=style).replace_frontend(
        enabled=frontend
    )
    built = aged(scheme, cfg, sim_cfg)
    assert built.host["image"] == "built"
    assert built.ftl.gc.collections > 0  # the image holds a GC-active device
    image = cached_image(built)
    pin = image.fingerprint()

    restored = aged(scheme, cfg, sim_cfg)
    assert restored.host["image"] == "memory"
    # (a) field by field, order included
    assert state_diff(device_state(built.ftl), device_state(restored.ftl)) == []
    # (b) the restored device replays like the uninterrupted run
    assert report_digest(restored.run(TRACE)) == report_digest(built.run(TRACE))
    # (c) neither replay reached into the cached image
    assert image.fingerprint() == pin


# ----------------------------------------------------------------------
# proof obligation (d): a mid-run snapshot at the FTL/flash level
# ----------------------------------------------------------------------
def mixed_ops(cfg, n, seed):
    """``(op, offset, size)`` rows: mostly writes (across-page, sub-page
    and multi-page), some reads and trims, inside 90 % of the space."""
    rng = np.random.default_rng(seed)
    spp = cfg.sectors_per_page
    pages = int(cfg.logical_pages * 0.9)
    ops = []
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 0:
            boundary = int(rng.integers(1, pages)) * spp
            offset = boundary - int(rng.integers(1, spp // 2))
            size = boundary - offset + int(rng.integers(1, spp // 2))
        elif kind == 1:
            size = int(rng.integers(1, spp))
            offset = int(rng.integers(pages)) * spp + int(
                rng.integers(0, spp - size + 1)
            )
        else:
            offset = int(rng.integers(pages - 4)) * spp
            size = int(rng.integers(1, 3 * spp))
        ops.append(("wwwwwwrrt"[int(rng.integers(9))], offset, size))
    return ops


def drive(ftl, ops, t0):
    """Timed host operations 0.05 ms apart; returns every finish time."""
    finishes = []
    for i, (op, offset, size) in enumerate(ops):
        now = t0 + 0.05 * i
        if op == "w":
            finishes.append(ftl.write(offset, size, now))
        elif op == "r":
            finishes.append(ftl.read(offset, size, now)[0])
        else:
            finishes.append(ftl.trim(offset, size, now))
    return finishes


@pytest.mark.parametrize("policy", GC_POLICIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_mid_run_snapshot_resumes(scheme, policy):
    """Timed host operations on an aged device, a snapshot half way,
    the rest on both: the chip timeline, a partial policy's mid-way
    victim and everything else resume exactly."""
    cfg = CFG.replace(gc_policy=policy)
    ops = mixed_ops(cfg, 3000, seed=9)
    half = len(ops) // 2
    original = aged(scheme, cfg).ftl
    collections = original.gc.collections
    drive(original, ops[:half], 0.0)
    assert original.gc.collections > collections
    assert original.service.timeline.busy_time.any()
    snapshot = device_state(original)

    resumed = make_ftl(scheme, FlashService(cfg))
    load_device_state(resumed, snapshot)
    assert state_diff(device_state(resumed), snapshot) == []

    t1 = 0.05 * half
    assert drive(resumed, ops[half:], t1) == drive(original, ops[half:], t1)
    assert state_diff(device_state(resumed), device_state(original)) == []
    assert resumed.counters == original.counters
    resumed.check_invariants()
    resumed.service.array.check_invariants()


def test_state_diff_names_the_field():
    a, b = aged("across").ftl, aged("across").ftl
    b.service.array.erase_count[3] += 1
    b.amt.peak_live += 1
    lru = b.map_caches[0]._cached
    lru.move_to_end(next(iter(lru)))  # same entries, another order
    diff = state_diff(device_state(a), device_state(b))
    assert {"array.erase_count", "cache0.lru_tvpn", "ftl.amt_alloc"} <= set(diff)
    assert set(diff) <= {
        "array.erase_count", "cache0.lru_tvpn", "cache0.lru_dirty",
        "ftl.amt_alloc",
    }


# ----------------------------------------------------------------------
# the key
# ----------------------------------------------------------------------
#: a non-default value per replay-only field
REPLAY_ONLY_TOGGLES = {
    "qos_streams": (CFG.logical_sectors // 2,),
    "queue_depth": 8,
    "frontend": FrontendConfig(enabled=True),
    "batch": BatchConfig(enabled=True),
    "progress": True,
    "record_latencies": False,
    "record_requests": True,
    "record_wear": True,
    "snapshot_every": 50,
    "observability": ObservabilityConfig(
        enabled=True, trace=True, sample_interval_ms=1.0, attribution=True
    ),
}

#: and per field that aging depends on (or that excludes the run)
KEYED_TOGGLES = {
    "aged_used": 0.8,
    "aged_valid": 0.3,
    "aging_style": "aligned",
    "seed": 43,
    "check_oracle": True,
    "faults": FaultConfig(enabled=True),
    "check": CheckConfig(enabled=True),
}


def test_every_simconfig_field_is_classified():
    names = {f.name for f in dataclasses.fields(SimConfig)}
    assert set(REPLAY_ONLY_FIELDS) == set(REPLAY_ONLY_TOGGLES)
    assert set(REPLAY_ONLY_TOGGLES) | set(KEYED_TOGGLES) == names
    assert not set(REPLAY_ONLY_TOGGLES) & set(KEYED_TOGGLES)


@pytest.mark.parametrize("field", REPLAY_ONLY_FIELDS)
def test_replay_only_field_leaves_aging_alone(field, capsys):
    toggled = dataclasses.replace(AGED, **{field: REPLAY_ONLY_TOGGLES[field]})
    toggled.validate()
    assert toggled != AGED
    for scheme in SCHEMES:
        plain = aged(scheme)
        IMAGES.clear()  # age for real under the toggled config too
        really_aged = aged(scheme, sim_cfg=toggled)
        assert really_aged.host["image"] == "built"
        assert image_key(really_aged.ftl, toggled) == image_key(plain.ftl, AGED)
        assert state_diff(
            device_state(plain.ftl), device_state(really_aged.ftl)
        ) == []
        restored = aged(scheme, sim_cfg=toggled)
        assert restored.host["image"] == "memory"
        assert report_digest(restored.run(TRACE)) == report_digest(
            really_aged.run(TRACE)
        )


@pytest.mark.parametrize("field", sorted(KEYED_TOGGLES))
def test_every_other_field_splits_the_key(field):
    toggled = dataclasses.replace(AGED, **{field: KEYED_TOGGLES[field]})
    toggled.validate()
    ftl = make_ftl("across", FlashService(CFG))
    assert image_key(ftl, toggled) != image_key(ftl, AGED)


def test_device_scheme_and_ftl_kwargs_split_the_key():
    def key(scheme="ftl", cfg=CFG, **kw):
        return image_key(make_ftl(scheme, FlashService(cfg), **kw), AGED)

    keys = {
        key(),
        key("across"),
        key(cfg=CFG.replace(gc_policy="preemptive")),
        key(cfg=CFG.replace(blocks_per_plane=32)),
        key(rmw_enabled=False),
    }
    assert len(keys) == 5
    assert key() == key()


# ----------------------------------------------------------------------
# what stays outside the cache
# ----------------------------------------------------------------------
def _direct(tmp):
    return Simulator(AcrossFTL(FlashService(CFG)), AGED, image_dir=tmp)


def _touched(tmp):
    sim = build("across", image_dir=tmp)
    sim.ftl.write(0, 4, 0.0)
    return sim


BYPASSES = {
    "faults": lambda tmp: build(
        "across", sim_cfg=AGED.replace_faults(enabled=True), image_dir=tmp
    ),
    "oracle": lambda tmp: build(
        "across", sim_cfg=dataclasses.replace(AGED, check_oracle=True),
        image_dir=tmp,
    ),
    "checker": lambda tmp: build(
        "across", sim_cfg=AGED.replace_check(enabled=True), image_dir=tmp
    ),
    "not-aged": lambda tmp: build("across", sim_cfg=SimConfig(), image_dir=tmp),
    "constructed-directly": _direct,
    "device-already-written": _touched,
}


@pytest.mark.parametrize("mode", BYPASSES)
def test_excluded_mode_bypasses_the_cache(mode, tmp_path):
    for _ in range(2):
        sim = BYPASSES[mode](tmp_path)
        sim.age_device()
        assert sim.host["image"] == "bypass"
    assert IMAGES.stats() == {"entries": 0, "bytes": 0}
    assert list(tmp_path.iterdir()) == []


def test_age_with_trace_bypasses_the_cache(tmp_path):
    for _ in range(2):
        sim = build("across", image_dir=tmp_path)
        sim.age_with_trace(TRACE)
        sim.age_device()  # already aged: a no-op
        assert sim.host["image"] == "bypass"
    assert IMAGES.stats()["entries"] == 0
    assert list(tmp_path.iterdir()) == []


def test_payload_stamps_are_refused():
    ftl = make_ftl("across", FlashService(CFG), track_payload=True)
    ftl.write(0, 4, 0.0, 1)
    with pytest.raises(ValueError, match="payload"):
        device_state(ftl)


# ----------------------------------------------------------------------
# tier 1: the in-process LRU
# ----------------------------------------------------------------------
def fake_image(key: str, nbytes: int) -> DeviceImage:
    header = {"version": image_mod.IMAGE_VERSION, "key": key,
              "geometry": {}, "values": {}}
    return DeviceImage(header, {"array.x": np.zeros(nbytes, np.uint8)})


class TestMemoryTier:
    def test_bounded_by_bytes_not_entries(self):
        cache = ImageCache(max_bytes=1000)
        for k in "abc":
            cache.store(fake_image(k, 400))
        assert cache.stats() == {"entries": 2, "bytes": 800}
        assert cache.fetch("a", {}) is None  # the oldest went
        assert cache.fetch("b", {})[1] == "memory"
        cache.store(fake_image("d", 400))  # "b" was just used: "c" goes
        assert cache.fetch("c", {}) is None
        assert cache.fetch("b", {}) is not None

    def test_an_image_over_the_bound_is_not_kept(self):
        cache = ImageCache(max_bytes=1000)
        cache.store(fake_image("a", 400))
        cache.store(fake_image("huge", 1001))
        assert cache.stats() == {"entries": 1, "bytes": 400}

    def test_replacing_a_key_keeps_the_byte_count_right(self):
        cache = ImageCache(max_bytes=1000)
        cache.store(fake_image("a", 400))
        cache.store(fake_image("a", 300))
        assert cache.stats() == {"entries": 1, "bytes": 300}
        cache.clear()
        assert cache.stats() == {"entries": 0, "bytes": 0}

    def test_the_process_cache_holds_bench_sized_images(self):
        # 3 schemes x ~2-8 MiB on the bench device must all fit
        assert IMAGES.max_bytes >= 32 * 1024 * 1024

    def test_threads_hammering_one_cache(self):
        """Service threads share ``IMAGES``: no lost update may leave
        the byte count off or the bound exceeded."""
        cache = ImageCache(max_bytes=2000)
        errors = []

        def worker(n):
            try:
                for i in range(300):
                    key = f"k{(n + i) % 7}"
                    cache.store(fake_image(key, 100 + 50 * ((n + i) % 5)))
                    hit = cache.fetch(f"k{i % 7}", {})
                    assert hit is None or hit[0].header["key"] == f"k{i % 7}"
                    assert cache.stats()["bytes"] <= 2000
            except Exception as exc:  # reported by the parent below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cache.stats()["bytes"] == sum(
            im.nbytes for im, _ in cache._memory._items.values()
        )

    def test_a_restore_does_not_keep_the_previous_device(self):
        """A dropped simulator is freed by reference counting (the
        device is a tree); neither the cache nor a later restore from
        the same image may hold on to it, or a worker that only
        restores keeps every device it ever filled."""
        aged("mrsm")
        previous = aged("mrsm")
        assert previous.host["image"] == "memory"
        gone = weakref.ref(previous.ftl.service.array)
        del previous
        aged("mrsm")
        assert gone() is None

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_restore_allocates_no_per_page_objects(self, scheme):
        """Page records are columns in the device and in the image, so
        filling the e2e bench device (65 536 pages, ~24 500 of them
        valid) is array copies plus the scheme's small dicts (cache
        LRUs, translation-page locations, AMT entries): the live-object
        count moves by a constant, not by the pages — which is why a
        restore no longer has to park the cyclic collector."""
        image = cached_image(aged(scheme, BENCH_CFG))
        fresh = build(scheme, BENCH_CFG)
        assert fresh.ftl.service.array.total_valid_pages == 0
        gc.collect()
        was_enabled = gc.isenabled()
        before = sys.getallocatedblocks()
        image.restore(fresh.ftl)
        grown = sys.getallocatedblocks() - before
        assert gc.isenabled() == was_enabled
        assert fresh.ftl.service.array.total_valid_pages > 20_000
        assert grown < 2_000, grown

    def test_restore_copies_out_of_a_read_only_image(self):
        sim = aged("mrsm")
        image = cached_image(sim)
        assert all(not a.flags.writeable for a in image.arrays.values())
        assert sim.run(TRACE).requests == len(TRACE)  # and nothing raised


# ----------------------------------------------------------------------
# tier 2: <image_dir>/<key>.npz
# ----------------------------------------------------------------------
def run_against(tmp, scheme="across"):
    """A fresh process as far as the memory tier goes: (source, digest)."""
    IMAGES.clear()
    sim = build(scheme, image_dir=tmp)
    report = sim.run(TRACE)
    return sim.host["image"], report_digest(report)


def only_image(tmp):
    (path,) = tmp.glob("*.npz")
    return path


def truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])


def garbage(path):
    path.write_bytes(np.random.default_rng(1).bytes(4096))


def empty(path):
    path.write_bytes(b"")


def other_key(path):
    """A valid image of another device under this key's file name."""
    other = aged("ftl")
    cached_image(other).save(path)


def other_geometry(path):
    """This key, but a device of another size."""
    image = DeviceImage.load(
        path, path.stem, device_geometry(build("across").ftl)
    )
    header = dict(image.header)
    header["geometry"] = dict(header["geometry"], num_pages=1)
    DeviceImage(header, image.arrays).save(path)


@pytest.mark.parametrize(
    "damage", [truncate, garbage, empty, other_key, other_geometry],
    ids=lambda f: f.__name__,
)
def test_damaged_disk_image_is_a_miss_then_overwritten(damage, tmp_path):
    source, digest = run_against(tmp_path)
    assert source == "built"
    assert run_against(tmp_path) == ("disk", digest)
    damage(only_image(tmp_path))
    assert run_against(tmp_path) == ("built", digest)  # miss, rebuild
    assert run_against(tmp_path) == ("disk", digest)  # valid overwrite
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]


def test_another_image_version_is_a_miss(tmp_path, monkeypatch):
    source, digest = run_against(tmp_path)
    monkeypatch.setattr(image_mod, "IMAGE_VERSION", image_mod.IMAGE_VERSION + 1)
    assert run_against(tmp_path) == ("built", digest)
    assert run_against(tmp_path) == ("disk", digest)
    monkeypatch.undo()
    assert run_against(tmp_path) == ("built", digest)  # and back again


def test_unwritable_image_dir_costs_a_rebuild_not_the_run(tmp_path):
    blocker = tmp_path / "images"
    blocker.write_text("a file where the directory should be")
    source, digest = run_against(blocker)
    assert source == "built"
    assert run_against(blocker) == ("built", digest)
    assert blocker.read_text().startswith("a file")


def test_disk_hit_is_kept_in_memory(tmp_path):
    run_against(tmp_path)
    IMAGES.clear()
    assert aged("across", image_dir=tmp_path).host["image"] == "disk"
    assert aged("across", image_dir=tmp_path).host["image"] == "memory"
    assert aged("across").host["image"] == "memory"  # no directory needed


def _racer(tmp):
    """Worker process: run against ``tmp`` six times, removing the image
    first every other time so writers and readers keep colliding."""
    out = []
    for i in range(6):
        if i % 2:
            for path in tmp.glob("*.npz"):
                path.unlink(missing_ok=True)
        out.append(run_against(tmp))
    return out


def test_processes_racing_on_one_key(tmp_path):
    _, digest = run_against(tmp_path, "across")
    only_image(tmp_path).unlink()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(3) as pool:
        results = pool.map(_racer, [tmp_path] * 3)
    pool.join()
    runs = [r for per_process in results for r in per_process]
    assert {d for _, d in runs} == {digest}
    assert {s for s, _ in runs} <= {"built", "disk"}
    # whoever wrote last, the file left behind is whole and right
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
    assert run_against(tmp_path) == ("disk", digest)


# ----------------------------------------------------------------------
# the pin
# ----------------------------------------------------------------------
#: fingerprint of the tiny-device image per scheme (CFG, AGED)
FINGERPRINTS = {
    "ftl": "af58f51cf683399f3119b97a4023412c73e154e3367605ad3187f9d882fbdc9b",
    "mrsm": "c1920c9c3d97435a2dcbb9776323175a1e79a209cf8e28d34930fe9d407db570",
    "across": "27d5e97e8602aa00181a32a40a7f442e3e3905a3ef5dbce1b9bd9a78ec1e1f8b",
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_image_fingerprint_is_pinned(scheme):
    got = cached_image(aged(scheme)).fingerprint()
    assert got == FINGERPRINTS[scheme], (
        "aging behaviour changed: bump `IMAGE_VERSION` in "
        "src/repro/sim/image.py (on-disk images of the old behaviour must "
        "become misses), then pin the new fingerprint here: "
        f"{scheme!r}: {got!r} — see CONTRIBUTING.md"
    )


def test_mrsm_bench_image_is_array_copies():
    """MRSM's tables are flat columns in the device and in the image:
    on the e2e bench device the image is no larger than the 6.2 MB its
    dict-ordered encoding took, and a restore is array copies (2 ms on
    the reference box; 60-130 ms when it rebuilt ~250 k tuples)."""
    assert aged("mrsm", BENCH_CFG).host["image"] == "built"
    restores = []
    for _ in range(3):
        restored = aged("mrsm", BENCH_CFG)
        assert restored.host["image"] == "memory"
        restores.append(restored.host["age_s"])
    assert cached_image(restored).nbytes <= 6_150_646
    assert min(restores) <= 0.040
    restored.ftl.check_invariants()


def test_aging_runs_no_heap_wide_collect(monkeypatch):
    """``age_s`` times the device, not the caller's heap: neither
    aging nor a memory-tier restore runs the cyclic collector (a
    dropped device needs none, tests/test_acyclic_device.py)."""

    def collect(*args):
        raise AssertionError("age_device ran gc.collect()")

    monkeypatch.setattr(gc, "collect", collect)
    built = aged("ftl")
    restored = aged("ftl")
    assert (built.host["image"], restored.host["image"]) == ("built", "memory")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_image_holds_page_records_as_columns(scheme):
    """One layout for every scheme: the array's ``kind`` / ``a`` / ``b``
    / ``c`` columns, no per-kind encoding, and ``region_*`` side columns
    only where a scheme registered them."""
    names = {n.split(".", 1)[1] for n in cached_image(aged(scheme)).arrays
             if n.startswith("array.")}
    assert {"kind", "a", "b", "c"} <= names
    assert not {n for n in names if n.startswith(("meta_", "data_", "map_", "across_"))}
    assert {n for n in names if n.startswith("region_")} == (
        {"region_key", "region_mask", "region_slots", "region_live"}
        if scheme == "mrsm" else set()
    )


def test_fingerprint_sees_values_and_arrays():
    image = cached_image(aged("across"))
    base = image.fingerprint()
    values = dict(image.header["values"], **{"gc.tallies": [0] * 6})
    assert DeviceImage(
        dict(image.header, values=values), image.arrays
    ).fingerprint() != base
    arrays = dict(image.arrays)
    arrays["array.erase_count"] = arrays["array.erase_count"] + 1
    assert DeviceImage(image.header, arrays).fingerprint() != base


# ----------------------------------------------------------------------
# sweeps: the counts, the store beside its images, the host record
# ----------------------------------------------------------------------
def grid(traces=6, cfgs=(CFG,)):
    """``traces`` x ``cfgs`` x three schemes, the shape of Fig. 9-12."""
    specs = []
    for i in range(traces):
        trace = generate_trace(
            SyntheticSpec(
                f"t{i}", 120, 0.6, 0.25, 9.0,
                footprint_sectors=int(CFG.logical_sectors * 0.7), seed=30 + i,
            )
        )
        for cfg in cfgs:
            specs += [RunSpec.make(s, trace, cfg, AGED) for s in SCHEMES]
    return specs


def restored(images) -> int:
    return images["memory"] + images["disk"]


class TestSweeps:
    def test_a_store_sweep_ages_each_device_once(self, tmp_path):
        """18 runs sharing 3 images over 2 workers: 3 built (+ at most
        one start-up race), the rest restored — the second worker from
        the first one's file, the next sweep's workers from the same."""
        store = ResultStore(tmp_path)
        cold = execute_runs(grid(), jobs=2, store=store)
        assert cold.ok and cold.executed == 18
        assert 3 <= cold.images["built"] <= 4
        assert restored(cold.images) >= 14
        assert sum(cold.images.values()) == 18
        assert cold.age_s > 0.0
        assert len(list(store.image_dir.glob("*.npz"))) == 3
        assert len(store) == 18 and len(store.index()) == 18

        for path in store.root.glob("*.json"):
            path.unlink()  # the reports go, the images stay
        again = execute_runs(grid(), jobs=2, store=store)
        assert again.executed == 18
        assert again.images["built"] == 0 and restored(again.images) == 18
        assert images_line(again.images) == "images: 0 built, 18 restored"
        assert [report_digest(r) for r in again.reports] == [
            report_digest(r) for r in cold.reports
        ]

    def test_without_a_store_the_process_keeps_its_own(self):
        out = execute_runs(grid(), jobs=1)
        assert dict(out.images) == {"built": 3, "memory": 15}

    def test_distinct_images_restore_nothing(self):
        cfgs = [
            CFG.replace(gc_policy=p)
            for p in ("greedy", "preemptive", "hot_cold")
        ]
        out = execute_runs(grid(traces=1, cfgs=cfgs), jobs=1)
        assert dict(out.images) == {"built": 9}
        assert images_line(out.images) == "images: 9 built, 0 restored"

    def test_cached_reports_age_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        execute_runs(grid(traces=1), store=store)
        warm = execute_runs(grid(traces=1), store=store)
        assert warm.cached == 3 and not warm.images and warm.age_s == 0.0

    def test_bypassed_runs_are_counted_as_such(self):
        plain = RunSpec.make("across", TRACE, CFG, SimConfig())
        oracle = RunSpec.make(
            "across", TRACE, CFG, dataclasses.replace(AGED, check_oracle=True)
        )
        out = execute_runs([plain, oracle], jobs=1)
        assert dict(out.images) == {"bypass": 2}
        assert images_line(out.images) == "images: 0 built, 0 restored, 2 bypassed"


class TestStoreBesideImages:
    def test_len_and_index_ignore_images_and_clear_removes_them(self, tmp_path):
        store = ResultStore(tmp_path)
        execute_runs(grid(traces=1), store=store)
        assert len(list(store.image_dir.glob("*.npz"))) == 3
        # what a killed writer leaves behind, in both directories
        (store.root / "t0__ftl__8k__0123.json.abcd.tmp").write_text("{")
        (store.image_dir / "0123.npz.abcd.tmp").write_bytes(b"PK")
        assert len(store) == 3 and len(store.index()) == 3
        assert store.clear() == 3
        assert list(store.root.iterdir()) == []

    def test_clear_without_images(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.clear() == 0
        assert not store.image_dir.exists()


class TestHostRecord:
    def test_outside_the_report_document_and_equality(self):
        built = build("across").run(TRACE)
        restored_run = build("across").run(TRACE)
        assert built.host["image"] == "built"
        assert restored_run.host["image"] == "memory"
        assert built.host["age_s"] > 0.0
        assert "host" not in built.to_dict()
        assert report_digest(built) == report_digest(restored_run)
        host = {f.name: f for f in dataclasses.fields(built)}["host"]
        assert host.compare is False
        assert SimulationReport.from_dict(built.to_dict()).host == {}

    def test_survives_the_worker_pickle(self):
        report = build("across").run(TRACE)
        assert pickle.loads(pickle.dumps(report)).host == report.host
