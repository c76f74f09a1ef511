"""Calibrated synthetic VDI workloads.

The paper replays six LUN traces from an enterprise Virtual Desktop
Infrastructure (SYSTOR'17 collection).  Those traces are not
redistributable with this repository, so this module generates
workloads *calibrated to Table 2*: request count, write ratio, mean
write size and — most importantly — the across-page request ratio at
the reference 8 KiB page size are generator inputs reproduced exactly
(within sampling noise).  :mod:`repro.traces.systor` loads the real
traces when available; both feed the same runner.

Why the substitution preserves behaviour: Across-FTL's benefit is a
function of (a) how many requests are across-page, (b) how often
across-page data is updated/extended (AMerge) or overwhelmed
(ARollback), and (c) how often reads fall inside the re-aligned areas.
The generator models VDI block traffic as a mixture that controls all
three:

* **across component** (probability = the Table 2 "Across R"): small
  extents deliberately straddling an 8 KiB page boundary, drawn from a
  pool of reusable *sites* so updates re-hit the same areas — mostly
  contained overwrites and small extensions (AMerge), rarely growing
  past one page (ARollback);
* **small unaligned component**: sub-page extents on a 512 B/1 KiB
  grid that stay inside one 8 KiB page (these are what makes the
  across-page ratio *rise* when the page shrinks to 4 KiB, Fig. 13,
  and occasionally overlap an across area — the Unprofitable-AMerge
  class of Fig. 8b);
* **aligned component**: 4 KiB-aligned requests with a size mixture
  solved to match the Table 2 mean write size (the VDI bulk traffic).

Reads preferentially target previously written extents, and reads of
across sites occasionally exceed the site (merged reads, §4.2.1).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import ConfigError, ReproError
from ..units import KIB, SECTOR_BYTES
from .model import OP_READ, OP_WRITE, Trace

#: reference page size the across-page ratio is calibrated at (paper
#: Table 2 uses 8 KiB pages)
REFERENCE_PAGE_BYTES = 8 * KIB
_REF_SPP = REFERENCE_PAGE_BYTES // SECTOR_BYTES  # 16 sectors


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of one synthetic workload (one Table 2 row)."""

    name: str
    requests: int
    write_ratio: float
    #: target across-page request ratio at the 8 KiB reference page
    across_ratio: float
    #: target mean write size in KiB
    mean_write_kb: float
    #: addressable sector span the workload stays inside
    footprint_sectors: int
    seed: int = 1
    #: mean request interarrival in ms (exponential with bursts);
    #: calibrated so the baseline FTL's write response sits a few times
    #: above the 2 ms program latency, like the paper's Fig. 9 values
    interarrival_ms: float = 7.0
    #: probability a new request reuses an existing across site
    site_reuse: float = 0.45
    #: on reuse: P(contained overwrite), P(small extension); the rest
    #: grows past one page and triggers ARollback
    p_overwrite: float = 0.72
    p_extend: float = 0.245
    #: share of across sites carrying *bulk* extents (8..16 sectors —
    #: ordinary 4-8 KiB writes that merely straddle a boundary; these
    #: are what makes the paper's per-sector across cost only ~1.5x a
    #: normal request's, Fig. 4).  The rest are small tails (2..4
    #: sectors), which also straddle 4 KiB boundaries when the page
    #: shrinks (Fig. 13).
    across_big_fraction: float = 0.5
    #: share of non-across writes that are small unaligned sub-page
    small_unaligned: float = 0.22
    #: probability a read that targets an across site exceeds it
    #: (merged reads are rare in the paper's traces: 0.12% of reads)
    p_read_beyond: float = 0.005
    #: Markov burst model of arrivals (VDI boot/login storms): chance of
    #: entering a burst run, of staying in it, and the rate multiplier
    #: while bursting.  Calibrated so the baseline FTL's write response
    #: sits a few times above the 2 ms program latency (paper Fig. 9).
    burst_enter: float = 0.02
    burst_stay: float = 0.97
    burst_speedup: float = 30.0
    #: spatial locality: the address space is split into this many
    #: zones whose popularity follows a zipf law (VDI traffic is
    #: strongly skewed; this is also what gives mapping caches their
    #: hit rates)
    hot_zones: int = 64
    #: zipf exponent of zone popularity (larger = more skewed)
    zipf_s: float = 1.1

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any out-of-range knob."""
        if self.requests < 0:
            raise ConfigError("requests must be non-negative")
        for nm in (
            "write_ratio",
            "across_ratio",
            "site_reuse",
            "p_overwrite",
            "p_extend",
            "across_big_fraction",
            "small_unaligned",
            "p_read_beyond",
        ):
            v = getattr(self, nm)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{nm} must be in [0, 1], got {v}")
        if self.p_overwrite + self.p_extend > 1.0:
            raise ConfigError("p_overwrite + p_extend must be <= 1")
        if self.hot_zones < 1:
            raise ConfigError("hot_zones must be >= 1")
        for nm in ("burst_enter", "burst_stay"):
            v = getattr(self, nm)
            if not (0.0 <= v < 1.0):
                raise ConfigError(f"{nm} must be in [0, 1), got {v}")
        if self.burst_speedup < 1.0:
            raise ConfigError("burst_speedup must be >= 1")
        if self.zipf_s <= 0:
            raise ConfigError("zipf_s must be positive")
        if self.footprint_sectors < 16 * _REF_SPP:
            raise ConfigError("footprint too small for a meaningful workload")
        if self.mean_write_kb <= 0:
            raise ConfigError("mean_write_kb must be positive")


# aligned-size candidates (sectors): small group and large group; the
# mix between groups is solved for the Table 2 mean write size
_SMALL_SIZES = np.array([8, 16], dtype=np.int64)          # 4, 8 KiB
_LARGE_SIZES = np.array([32, 48, 64, 96, 128], dtype=np.int64)  # 16-64 KiB
# the across bulk-extent candidates of _new_across_site, as a tuple:
# ``Generator.choice(a)`` without weights draws ``integers(0, len(a))``,
# so plain tuple indexing consumes the identical stream without paying
# choice()'s per-call array coercion and validation
_ACROSS_BULK_SIZES = (8, 12, 16)


def _weights_cdf(p) -> list[float]:
    """The exact CDF ``Generator.choice(n, p=p)`` builds internally.

    numpy computes ``cdf = p.cumsum(); cdf /= cdf[-1]`` and then draws
    ``cdf.searchsorted(random(), side='right')``.  Replicating that CDF
    once lets the per-request hot path replace ``choice`` — whose
    argument validation dominates its cost — with one ``random()`` plus
    ``bisect_right``, consuming the identical RNG stream and returning
    the identical index (``tests/test_synthetic.py`` pins this
    equivalence against ``Generator.choice`` itself).
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_U32 = 0xFFFFFFFF
_2_32 = 1 << 32
_TWO_M53 = 1.0 / 9007199254740992.0
#: ``(double)INT64_MAX``, the bound of numpy's zipf rejection loop
_INT64_MAX_F = float(2**63 - 1)


class _Draws:
    """numpy's scalar ``random()`` / ``integers()`` / ``zipf()``
    replayed in Python over a PCG64 generator's raw 64-bit output.

    A scalar ``Generator`` call is mostly per-call overhead; the value
    is a shift or a multiply.  This reads ``random_raw`` in blocks and
    recomputes each value as numpy's C code does: ``random()`` is
    ``(u64 >> 11) * 2**-53``; ``integers()`` is Lemire's bounded-uint32
    rejection over PCG64's 32-bit draws (the low half of a fresh word,
    then its buffered high half — ``has_uint32`` / ``uinteger`` taken
    over at creation; width 1 draws nothing, an empty range raises like
    numpy, ranges wider than 2**32 are refused); ``zipf()`` is
    ``random_zipf``'s rejection loop.  Values and stream position match
    numpy call for call, pinned against the installed numpy by
    ``tests/test_synthetic.py::TestRngStreamEquivalence``.  The
    generator is left ahead of the replay and must not be drawn from
    again.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"the draw replay needs a PCG64 bit generator, "
                            f"got {type(bitgen).__name__}")
        raw = bitgen.random_raw
        # one endless C-level iterator over the raw stream
        self._next64 = chain.from_iterable(
            iter(lambda: raw(4096).tolist(), None)
        ).__next__
        state = bitgen.state
        #: the buffered high half of the last 64-bit word, or None
        self._half = state["uinteger"] if state["has_uint32"] else None

    def random(self) -> float:
        return (self._next64() >> 11) * _TWO_M53

    def integers(self, low: int, high: int | None = None) -> int:
        if high is None:
            low, width = 0, low
        else:
            width = high - low
        if width <= 1:
            if width == 1:
                return low
            raise ValueError("high <= 0" if high is None else "low >= high")
        if width > _2_32:
            raise ValueError(f"a range of {width} exceeds the replay's 2**32")
        while True:
            half = self._half
            if half is None:
                u = self._next64()
                self._half = u >> 32
                half = u & _U32
            else:
                self._half = None
            if width == _2_32:
                return low + half
            m = half * width
            # the threshold 2**32 % width is below width: skip it when
            # the leftover is not
            if (m & _U32) >= width or (m & _U32) >= _2_32 % width:
                return low + (m >> 32)

    def zipf(self, a: float) -> int:
        if not a > 1.0:
            raise ValueError("a <= 1 or a is NaN")
        if a >= 1025.0:
            return 1
        am1 = a - 1.0
        b, umin, exponent = 2.0 ** am1, _INT64_MAX_F ** -am1, -1.0 / am1
        next64 = self._next64
        while True:
            u01 = (next64() >> 11) * _TWO_M53
            u = u01 * umin + (1 - u01)
            v = (next64() >> 11) * _TWO_M53
            x = math.floor(u ** exponent)
            if x > _INT64_MAX_F or x < 1:
                continue
            t = (1.0 + 1.0 / x) ** am1
            if v * x * (t - 1.0) / (b - 1.0) <= t / b:
                return x


class VDIWorkloadGenerator:
    """Single-use generator of one :class:`Trace` from a spec.

    The bulk columns are vectorised numpy draws; every per-request draw
    is numpy's own algorithm replayed over the raw PCG64 stream
    (:class:`_Draws`, pinned by tests against the installed numpy), so
    traces equal call-by-call ``Generator`` draws bit for bit.
    """

    def __init__(self, spec: SyntheticSpec):
        spec.validate()
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        #: the per-request draw replay, built by :meth:`generate`
        self._draws: _Draws | None = None
        #: across sites: (start_sector, size_sectors) keyed by boundary
        self._sites: list[list[int]] = []
        #: page indices hosting an across site (kept disjoint from the
        #: bulk aligned traffic: in VDI workloads the structures that
        #: produce boundary-straddling tails — journals, image metadata
        #: — are not the same blocks the guest overwrites wholesale;
        #: this is what keeps the ARollback ratio at the paper's few
        #: percent, Fig. 8a)
        self._site_pages: set[int] = set()
        self._site_boundaries: set[int] = set()
        #: previously written aligned extents for read targeting
        self._written: list[tuple[int, int]] = []
        #: pages covered by the aligned pool (new across sites avoid
        #: them, so reads of bulk extents rarely cross an area — the
        #: paper measures merged reads at only 0.12% of reads)
        self._written_pages: set[int] = set()
        #: small-unaligned sites: sub-page extents rewritten in place
        #: (journal tails, bitmaps).  Reuse matters at 4 KiB pages,
        #: where these extents become across-page: rewriting the same
        #: extent is an AMerge overwrite, not a rollback storm.
        self._small_sites: list[tuple[int, int]] = []
        # zone popularity: zipf over a shuffled zone order so hot zones
        # are scattered across the address space
        ranks = np.arange(1, spec.hot_zones + 1, dtype=np.float64)
        weights = ranks ** (-spec.zipf_s)
        weights /= weights.sum()
        self._zone_pages = max(
            1, spec.footprint_sectors // _REF_SPP // spec.hot_zones
        )
        # hot-path precomputation: zone CDF (see _weights_cdf), zone
        # order as a plain list (scalar numpy indexing is ~5x slower),
        # and the aligned-size group CDFs
        self._zone_cdf = _weights_cdf(weights)
        self._zone_order_list = self.rng.permutation(spec.hot_zones).tolist()
        self._last_page = spec.footprint_sectors // _REF_SPP - 1
        w, ps, pl = self._solve_size_mix()
        self._small_cdf = _weights_cdf(ps)
        self._large_cdf = _weights_cdf(pl)
        self._small_sizes = _SMALL_SIZES.tolist()
        self._large_sizes = _LARGE_SIZES.tolist()
        self._w_small = w
        self._n_pages = spec.footprint_sectors // _REF_SPP
        self._pool_cap = max(256, self._n_pages // 128)

    def _pick_page(self) -> int:
        """A page index drawn from the zipf zone model."""
        rng = self._draws
        zone = self._zone_order_list[bisect_right(self._zone_cdf, rng.random())]
        page = zone * self._zone_pages + int(rng.integers(self._zone_pages))
        last = self._last_page
        return page if page < last else last

    # ------------------------------------------------------------------
    def _solve_size_mix(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Solve the small/large aligned-size mix for the target mean.

        The overall mean write size is across*mean_across +
        small*mean_small + aligned*mean_aligned; we pick the aligned
        group weights to land the total on ``mean_write_kb``.
        """
        s = self.spec
        target = s.mean_write_kb * KIB / SECTOR_BYTES
        # across mixture: big_fraction x ~12 sectors + rest x ~3 sectors
        mean_across = s.across_big_fraction * 12.0 + (
            1.0 - s.across_big_fraction
        ) * 3.0
        mean_small = 4.5     # small unaligned average ~2.25 KiB
        p_across = s.across_ratio
        p_small = (1.0 - p_across) * s.small_unaligned
        p_aligned = 1.0 - p_across - p_small
        need = (target - p_across * mean_across - p_small * mean_small) / max(
            p_aligned, 1e-9
        )
        mean_s = float(_SMALL_SIZES.mean())   # 12
        mean_l = float(_LARGE_SIZES.mean())   # 73.6
        w = (mean_l - need) / (mean_l - mean_s)
        w = float(np.clip(w, 0.0, 1.0))
        return (
            w,
            np.full(len(_SMALL_SIZES), 1.0 / len(_SMALL_SIZES)),
            np.full(len(_LARGE_SIZES), 1.0 / len(_LARGE_SIZES)),
        )

    # ------------------------------------------------------------------
    # request constructors
    # ------------------------------------------------------------------
    def _new_across_site(self) -> tuple[int, int]:
        """A fresh extent straddling a random 8 KiB page boundary."""
        rng = self._draws
        n_boundaries = self._n_pages - 1
        b_page = max(1, min(self._pick_page(), n_boundaries))
        # avoid boundaries adjacent to existing sites: an LPN can hold
        # only one across area, so neighbouring sites would force
        # rollbacks the real workloads do not show
        for _ in range(8):
            near = {b_page - 1, b_page, b_page + 1}
            pages = {b_page - 1, b_page}
            if (
                not (near & self._site_boundaries)
                and not (pages & self._written_pages)
                and not (pages & self._site_pages)
            ):
                break
            b_page = max(1, min(self._pick_page(), n_boundaries))
        boundary = b_page * _REF_SPP
        if rng.random() < self.spec.across_big_fraction:
            # bulk extent (4-8 KiB) that merely straddles the boundary:
            # a plain write whose placement is unaligned.  At 4 KiB
            # pages these span >1 page and are no longer across-page,
            # so they never enter a 4 KiB merge chain.
            size = _ACROSS_BULK_SIZES[int(rng.integers(3))]
            left = int(rng.integers(max(1, size - 12), min(size, 13)))
        else:
            # small tail (1-2 KiB): straddles a 4 KiB boundary too when
            # the page shrinks (Fig. 13's monotonicity), and AMerge
            # unions rarely outgrow even a 4 KiB page, keeping the
            # rollback ratio at the paper's few percent (Fig. 8a)
            left = int(rng.integers(1, 3))   # 1..2 sectors before
            right = int(rng.integers(1, 3))  # 1..2 sectors after
            size = left + right
        start = boundary - left
        self._sites.append([start, size])
        self._site_boundaries.add(b_page)
        self._site_pages.update((b_page - 1, b_page))
        return start, size

    def _across_write(self) -> tuple[int, int]:
        rng = self._draws
        s = self.spec
        if self._sites and rng.random() < s.site_reuse:
            # zipf-ish reuse: prefer recent sites
            idx = len(self._sites) - 1 - int(
                rng.zipf(1.6) - 1
            ) % len(self._sites)
            site = self._sites[idx]
            start, size = site
            boundary = (start // _REF_SPP + 1) * _REF_SPP
            r = rng.random()
            if r < s.p_overwrite:
                return start, size  # contained overwrite -> AMerge/no-read
            if r < s.p_overwrite + s.p_extend:
                # small extension, still across and still <= one page
                grow_left = int(rng.integers(0, 2))
                grow_right = int(rng.integers(0, 2)) or (1 - grow_left)
                new_start = max(boundary - _REF_SPP + 1, start - grow_left)
                new_end = min(boundary + _REF_SPP - 1, start + size + grow_right)
                new_end = min(new_end, new_start + _REF_SPP)
                if new_end - boundary < 1:
                    new_end = boundary + 1
                site[0], site[1] = new_start, new_end - new_start
                return new_start, new_end - new_start
            # grow past one page: the union exceeds a page -> ARollback.
            # The *site* resets to a small extent afterwards (the area
            # is gone; the next tail write there is small again).
            new_start = boundary - _REF_SPP // 2 - int(rng.integers(1, 5))
            new_start = max(0, new_start)
            new_size = min(
                _REF_SPP + int(rng.integers(1, _REF_SPP // 2)),
                _REF_SPP * 2 - 1,
            )
            left = int(rng.integers(1, 3))
            right = int(rng.integers(1, 3))
            site[0], site[1] = boundary - left, left + right
            return new_start, new_size
        return self._new_across_site()

    def _small_unaligned_write(self) -> tuple[int, int]:
        """Sub-page extent inside one 8 KiB page, 512 B granularity.

        With a small probability it deliberately overlaps an across
        site's page (without being across itself), producing the
        Unprofitable-AMerge class.
        """
        rng = self._draws
        if self._sites and rng.random() < 0.18:
            # update part of an across area without being across
            # ourselves: the union stays within the area, so this is
            # exactly the Unprofitable-AMerge class of Fig. 8b (a
            # rollback would need the union to outgrow a page)
            start, size = self._sites[int(rng.integers(len(self._sites)))]
            page = start // _REF_SPP  # first page of the area
            rel = start - page * _REF_SPP
            first_page_end = min(_REF_SPP, rel + size)
            span = first_page_end - rel
            if span >= 2:
                lo = rel + int(rng.integers(0, span - 1))
                hi = min(first_page_end, lo + int(rng.integers(2, 5)))
                return page * _REF_SPP + lo, hi - lo
            return page * _REF_SPP + rel, 1
        pool_cap = self._pool_cap
        if self._small_sites and (
            rng.random() < 0.6 or len(self._small_sites) >= pool_cap
        ):
            # rewrite an existing small site in place; once the pool is
            # at capacity every small write is a rewrite, so the
            # population of distinct sub-page sites stays bounded
            return self._small_sites[
                len(self._small_sites)
                - 1
                - int(rng.zipf(1.6) - 1) % len(self._small_sites)
            ]
        page = self._pick_page()
        for _ in range(6):  # stay off the across sites' pages
            if page not in self._site_pages:
                break
            page = self._pick_page()
        size = int(rng.integers(1, 9))  # 0.5 - 4 KiB
        if size >= 2 and rng.random() < 0.75:
            # straddle the page's interior 4 KiB boundary: still inside
            # one 8 KiB page, but across-page once pages shrink to 4 KiB
            half = _REF_SPP // 2
            rel = int(rng.integers(half - size + 1, half))
        else:
            rel = int(rng.integers(0, _REF_SPP - size + 1))
        extent = (page * _REF_SPP + rel, size)
        # bounded pool: the population of distinct sub-page sites —
        # which become live across areas at 4 KiB pages — scales with
        # the device rather than the trace length (the paper's
        # full-size device keeps area density under ~1% of pages)
        if len(self._small_sites) < pool_cap:
            self._small_sites.append(extent)
            # bulk traffic steers clear of these pages too: at 4 KiB
            # pages the straddling sites become across areas, and a
            # full-page overwrite on top would be a rollback real
            # workloads don't show
            self._site_pages.add(page)
        return extent

    def _aligned_write(self) -> tuple[int, int]:
        """4/8 KiB-aligned bulk traffic that is never across at 8 KiB."""
        rng = self._draws
        if rng.random() < self._w_small:
            size = self._small_sizes[
                bisect_right(self._small_cdf, rng.random())
            ]
        else:
            size = self._large_sizes[
                bisect_right(self._large_cdf, rng.random())
            ]
        if size % _REF_SPP == 0 or size > _REF_SPP:
            # multiples of a page (and anything larger than a page)
            # start on a page boundary: unaligned-but-not-across is the
            # across component's job
            n = self._n_pages
            pages_spanned = -(-size // _REF_SPP)
            page = min(self._pick_page(), max(0, n - 1 - pages_spanned))
            for _ in range(6):  # keep bulk traffic off the across sites
                span = range(page, page + pages_spanned)
                if not self._site_pages.intersection(span):
                    break
                page = min(self._pick_page(), max(0, n - 1 - pages_spanned))
            return page * _REF_SPP, size
        # 4 KiB request on the 4 KiB grid, kept inside one page
        page = self._pick_page()
        for _ in range(6):
            if page not in self._site_pages:
                break
            page = self._pick_page()
        half = int(rng.integers(2)) * (_REF_SPP // 2)
        if half + size > _REF_SPP:
            half = 0
        return page * _REF_SPP + half, size

    # ------------------------------------------------------------------
    def _read_target(self) -> tuple[int, int]:
        rng = self._draws
        s = self.spec
        if self._sites and rng.random() < s.across_ratio:
            start, size = self._sites[int(rng.integers(len(self._sites)))]
            if rng.random() < s.p_read_beyond:
                # merged read: exceed the area on one side
                return max(0, start - 2), min(size + 4, _REF_SPP * 2 - 1)
            if size > 2 and rng.random() < 0.5:
                # partial read within the area, still across
                boundary = (start // _REF_SPP + 1) * _REF_SPP
                lo = max(start, boundary - max(1, size // 2))
                hi = min(start + size, boundary + max(1, size // 2))
                return lo, hi - lo
            return start, size
        if self._small_sites and rng.random() < 0.18:
            # re-read a sub-page site (inside one 8 KiB page; across
            # once pages shrink to 4 KiB — Fig. 13)
            return self._small_sites[int(rng.integers(len(self._small_sites)))]
        if self._written and rng.random() < 0.75:
            off, size = self._written[int(rng.integers(len(self._written)))]
            return off, size
        return self._aligned_write()

    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        """Produce the whole trace, once.  Per-request draws are numpy's
        scalar algorithms replayed over the raw PCG64 stream (pinned by
        tests against the installed numpy); the replay reads ahead of the
        numpy generator, so a second call raises instead of continuing."""
        if self._draws is not None:
            raise ReproError("VDIWorkloadGenerator.generate() runs once")
        s = self.spec
        rng = self.rng
        n = s.requests
        ops = np.empty(n, dtype=np.uint8)
        offsets = np.empty(n, dtype=np.int64)
        sizes = np.empty(n, dtype=np.int64)

        is_write = rng.random(n) < s.write_ratio
        # Markov-modulated arrivals: VDI traffic alternates between calm
        # periods and sustained burst runs (boot/login storms).  Burst
        # runs last ~1/(1-burst_stay) requests at burst_speedup x the
        # base rate — these are what create the queueing the paper's
        # response times (several times the 2 ms program latency) show.
        gaps = rng.exponential(s.interarrival_ms, n)
        enter, stay, speedup = s.burst_enter, s.burst_stay, s.burst_speedup
        u = rng.random(n)
        in_burst = np.zeros(n, dtype=bool)
        state = False
        for i, ui in enumerate(u.tolist()):
            state = (ui < stay) if state else (ui < enter)
            in_burst[i] = state
        gaps[in_burst] /= speedup
        times = np.cumsum(gaps)

        p_across = s.across_ratio
        p_small_cut = p_across + (1 - p_across) * s.small_unaligned
        footprint = s.footprint_sectors
        max_written = 4096  # bounded memory for the read-target pool
        # the bulk draws are done: every later draw is a per-request
        # scalar, served by the replay.  Bind each per-request callable
        # once: the loop below runs for each of the trace's (often
        # hundreds of thousands of) requests
        self._draws = draws = _Draws(rng)
        random = draws.random
        integers = draws.integers
        across_write = self._across_write
        small_unaligned_write = self._small_unaligned_write
        aligned_write = self._aligned_write
        read_target = self._read_target
        written = self._written
        written_pages = self._written_pages
        out_ops = ops.tolist()
        out_offsets = offsets.tolist()
        out_sizes = sizes.tolist()
        for i, w in enumerate(is_write.tolist()):
            if w:
                r = random()
                if r < p_across:
                    off, size = across_write()
                elif r < p_small_cut:
                    off, size = small_unaligned_write()
                else:
                    off, size = aligned_write()
                    if len(written) < max_written:
                        written.append((off, size))
                    else:
                        written[int(integers(max_written))] = (off, size)
                    written_pages.update(
                        range(off // _REF_SPP, (off + size - 1) // _REF_SPP + 1)
                    )
                out_ops[i] = OP_WRITE
            else:
                off, size = read_target()
                out_ops[i] = OP_READ
            end = off + size
            if end > footprint:
                end = footprint
            if off < 0:
                off = 0
            elif off > footprint - 1:
                off = footprint - 1
            size = end - off
            out_offsets[i] = off
            out_sizes[i] = 1 if size < 1 else size
        ops[:] = out_ops
        offsets[:] = out_offsets
        sizes[:] = out_sizes
        return Trace(s.name, times, ops, offsets, sizes)


#: deterministic-generation memo: spec -> generated trace.  Generation
#: is a pure function of the (frozen, hashable) spec, so any two calls
#: with equal specs produce bit-identical traces — the memo only skips
#: redundant work, never changes output.  Bounded LRU; huge traces are
#: not retained.  Cached traces are marked read-only as a tripwire:
#: traces are immutable by repo convention, and sharing one across
#: callers must never let an in-place edit corrupt a later run.
#: ``repro serve`` generates from several request threads at once, so
#: every read-reorder-evict of the memo happens under the lock;
#: generation itself runs outside it.
_TRACE_MEMO: "OrderedDict[SyntheticSpec, Trace]" = OrderedDict()
_TRACE_MEMO_LOCK = threading.Lock()
_TRACE_MEMO_ENTRIES = 8
_TRACE_MEMO_MAX_REQUESTS = 200_000


def generate_trace(spec: SyntheticSpec, *, memo: bool = True) -> Trace:
    """Convenience wrapper: one-shot generation from a spec, memoised.

    Repeated calls with an equal spec return the same (read-only)
    :class:`Trace` instead of regenerating it — the bench-gate
    scenarios share their warm-up and lun specs across schemes, and
    regeneration was a third of their wall time.  Pass ``memo=False``
    to force a fresh, writable generation.

    Generation is deterministic in the spec (seed included), and the
    calibration targets come out within sampling noise:

    >>> spec = SyntheticSpec("demo", 4_000, write_ratio=0.6,
    ...                      across_ratio=0.25, mean_write_kb=9.0,
    ...                      footprint_sectors=1 << 20)
    >>> t = generate_trace(spec)
    >>> len(t)
    4000
    >>> t.offsets.tolist() == generate_trace(spec).offsets.tolist()
    True
    >>> from repro.traces.stats import characterize
    >>> st = characterize(t, 8192)
    >>> abs(st.write_ratio - 0.6) < 0.03
    True
    >>> abs(st.across_ratio - 0.25) < 0.03
    True
    """
    if not memo or spec.requests > _TRACE_MEMO_MAX_REQUESTS:
        return VDIWorkloadGenerator(spec).generate()
    with _TRACE_MEMO_LOCK:
        cached = _TRACE_MEMO.get(spec)
        if cached is not None:
            _TRACE_MEMO.move_to_end(spec)
            return cached
    trace = VDIWorkloadGenerator(spec).generate().freeze()
    with _TRACE_MEMO_LOCK:
        _TRACE_MEMO[spec] = trace
        while len(_TRACE_MEMO) > _TRACE_MEMO_ENTRIES:
            _TRACE_MEMO.popitem(last=False)
    return trace


def spec_from_stats(stats, *, requests: int | None = None, seed: int = 1,
                    footprint_sectors: int | None = None) -> SyntheticSpec:
    """A synthetic *twin* of a measured trace.

    Feed :func:`repro.traces.stats.characterize`'s output of any real
    trace and get a spec whose generated workload matches its request
    count, write ratio, mean write size and across-page ratio — an
    anonymised stand-in that can be shared or re-scaled when the
    original cannot (exactly how this library's lun presets stand in
    for the paper's SYSTOR'17 traces).
    """
    if stats.requests == 0:
        raise ConfigError("cannot build a spec from an empty trace")
    footprint = footprint_sectors
    if footprint is None:
        footprint = max(
            16 * _REF_SPP,
            int(stats.footprint_mb * 1024 * 1024 / SECTOR_BYTES),
        )
    return SyntheticSpec(
        name=f"{stats.name}-twin",
        requests=requests if requests is not None else stats.requests,
        write_ratio=stats.write_ratio,
        across_ratio=min(0.95, stats.across_ratio),
        mean_write_kb=max(0.5, stats.mean_write_kb),
        footprint_sectors=footprint,
        seed=seed,
    )


def trace_collection(
    count: int,
    *,
    footprint_sectors: int,
    requests: int = 10_000,
    base_seed: int = 100,
    name_prefix: str = "trace",
) -> list[SyntheticSpec]:
    """Specs for a Fig. 2-style collection: ``count`` traces whose
    across-page ratios spread over the range the LUN collection shows
    (a few percent up to ~35%)."""
    rng = np.random.default_rng(base_seed)
    specs = []
    for i in range(count):
        across = float(np.clip(rng.beta(2.0, 6.5), 0.01, 0.40))
        specs.append(
            SyntheticSpec(
                name=f"{name_prefix}{i + 1}",
                requests=requests,
                write_ratio=float(rng.uniform(0.3, 0.7)),
                across_ratio=across,
                mean_write_kb=float(rng.uniform(6.0, 14.0)),
                footprint_sectors=footprint_sectors,
                seed=base_seed + 7 * i + 1,
            )
        )
    return specs
