"""Progress-rate model tests: latency/bandwidth/fault blending."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.pageset import PageSet
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP, TierKind
from repro.runtime.rates import (
    PROFILE_WIDTH,
    RateModelConfig,
    demand_matrix,
    loaded_latency_factor,
    phase_row,
    phase_slowdown,
    slowdown_vector,
    tier_access_profile,
    tier_demand,
)
from repro.util.units import GBps, KiB
from repro.workflows.patterns import UniformPattern
from repro.workflows.task import TaskPhase

from conftest import CHUNK, small_specs

SPECS = small_specs()


def ps_with_weights(tiers, weights):
    ps = PageSet("t", len(tiers) * CHUNK, CHUNK)
    for i, t in enumerate(tiers):
        ps.assign(np.array([i]), t)
    w = np.zeros(ps.n_chunks, dtype=np.float32)
    w[: len(weights)] = weights
    ps.set_access_weights(w)
    return ps


def mark_shadowed(ps, i):
    """Mark chunk ``i`` page-cache shadowed, honouring the version contract."""
    ps.in_page_cache[i] = True
    ps.bump_placement_version()


def phase(compute=0.4, lat=0.4, bw=0.2, demand=GBps(1.0)):
    return TaskPhase(
        name="p",
        base_time=10.0,
        compute_frac=compute,
        lat_frac=lat,
        bw_frac=bw,
        demand_bandwidth=demand,
        pattern=UniformPattern(),
    )


class TestTierAccessProfile:
    def test_normalised_over_mapped(self):
        ps = ps_with_weights([DRAM, CXL], [0.3, 0.1])
        w, shadow = tier_access_profile(ps)
        assert w[int(DRAM)] == pytest.approx(0.75)
        assert w[int(CXL)] == pytest.approx(0.25)
        assert shadow == 0.0

    def test_shadowed_weight_separated(self):
        ps = ps_with_weights([DRAM, SWAP], [0.5, 0.5])
        mark_shadowed(ps, 1)
        w, shadow = tier_access_profile(ps)
        assert shadow == pytest.approx(0.5)
        assert w[int(SWAP)] == 0.0

    def test_idle_pageset(self):
        ps = ps_with_weights([DRAM], [0.0])
        w, shadow = tier_access_profile(ps)
        assert w.sum() == 0 and shadow == 0


class TestTierDemand:
    def test_demand_follows_weights(self):
        ps = ps_with_weights([DRAM, CXL], [0.75, 0.25])
        d = tier_demand(ps, GBps(4.0))
        assert d[int(DRAM)] == pytest.approx(GBps(3.0))
        assert d[int(CXL)] == pytest.approx(GBps(1.0))

    def test_shadowed_demand_charged_to_dram(self):
        ps = ps_with_weights([SWAP], [1.0])
        mark_shadowed(ps, 0)
        d = tier_demand(ps, GBps(2.0))
        assert d[int(DRAM)] == pytest.approx(GBps(2.0))
        assert d[int(SWAP)] == 0.0


class TestPhaseSlowdown:
    def test_all_dram_no_contention_is_unity(self):
        ps = ps_with_weights([DRAM], [1.0])
        s = phase_slowdown(phase(), ps, SPECS, achieved_bandwidth=GBps(1.0))
        assert s == pytest.approx(1.0)

    def test_cxl_latency_penalty(self):
        dram = ps_with_weights([DRAM], [1.0])
        cxl = ps_with_weights([CXL], [1.0])
        p = phase(compute=0.3, lat=0.7, bw=0.0, demand=0)
        s_dram = phase_slowdown(p, dram, SPECS, GBps(1))
        s_cxl = phase_slowdown(p, cxl, SPECS, GBps(1))
        assert s_cxl > s_dram
        # 140ns vs 80ns with lat_frac .7: 0.3 + 0.7*1.75
        assert s_cxl == pytest.approx(0.3 + 0.7 * 1.75, rel=1e-3)

    def test_swap_residency_dominates(self):
        swap = ps_with_weights([SWAP], [1.0])
        s = phase_slowdown(phase(), swap, SPECS, GBps(1))
        assert s > 50  # amortised major-fault latency is catastrophic

    def test_shadowed_swap_is_cheap(self):
        swap = ps_with_weights([SWAP], [1.0])
        mark_shadowed(swap, 0)
        s = phase_slowdown(phase(), swap, SPECS, GBps(1))
        assert s < 3

    def test_bandwidth_starvation(self):
        ps = ps_with_weights([DRAM], [1.0])
        p = phase(compute=0.3, lat=0.0, bw=0.7, demand=GBps(10.0))
        s_full = phase_slowdown(p, ps, SPECS, achieved_bandwidth=GBps(10.0))
        s_half = phase_slowdown(p, ps, SPECS, achieved_bandwidth=GBps(5.0))
        assert s_full == pytest.approx(1.0)
        assert s_half == pytest.approx(0.3 + 0.7 * 2.0)

    def test_surplus_bandwidth_never_speeds_up(self):
        ps = ps_with_weights([DRAM], [1.0])
        p = phase(compute=0.3, lat=0.0, bw=0.7, demand=GBps(1.0))
        s = phase_slowdown(p, ps, SPECS, achieved_bandwidth=GBps(100.0))
        assert s == pytest.approx(1.0)

    def test_migration_penalty_added_and_capped(self):
        ps = ps_with_weights([DRAM], [1.0])
        cfg = RateModelConfig(migration_overhead_cap=0.08)
        s0 = phase_slowdown(phase(), ps, SPECS, GBps(1), config=cfg)
        s1 = phase_slowdown(phase(), ps, SPECS, GBps(1), migration_penalty=0.05, config=cfg)
        s2 = phase_slowdown(phase(), ps, SPECS, GBps(1), migration_penalty=5.0, config=cfg)
        assert s1 == pytest.approx(s0 + 0.05)
        assert s2 == pytest.approx(s0 + 0.08)

    def test_idle_weights_treated_as_dram(self):
        ps = ps_with_weights([DRAM], [0.0])
        s = phase_slowdown(phase(demand=0), ps, SPECS, 0.0)
        assert s == pytest.approx(1.0)

    def test_slowdown_clamped(self):
        swap = ps_with_weights([SWAP], [1.0])
        cfg = RateModelConfig(max_slowdown=10.0)
        p = phase(compute=0.0, lat=1.0, bw=0.0, demand=0)
        assert phase_slowdown(p, swap, SPECS, GBps(1), config=cfg) == 10.0


# --------------------------------------------------------------------------- #
# bit-exactness of the vector kernels against the scalar formulation
# --------------------------------------------------------------------------- #


def ref_tier_demand(weights, shadow_weight, demand_bandwidth):
    """The per-task scalar demand formula the vector kernel replaced
    (verbatim, with the profile passed in instead of recomputed)."""
    demand = weights * demand_bandwidth
    demand[int(DRAM)] += shadow_weight * demand_bandwidth
    return demand


def ref_phase_slowdown(
    phase,
    weights,
    shadow_weight,
    specs,
    achieved_bandwidth,
    *,
    migration_penalty=0.0,
    config=RateModelConfig(),
    tier_bw_utilization=None,
):
    """The per-task scalar slowdown formula the vector kernel replaced
    (verbatim, with the profile passed in instead of recomputed)."""
    dram_lat = specs[DRAM].latency
    if weights.sum() + shadow_weight <= 0:
        lat_mult = 1.0
    else:
        def eff_latency(t):
            base = specs[t].latency
            if config.loaded_latency and tier_bw_utilization is not None:
                base *= loaded_latency_factor(
                    float(tier_bw_utilization[int(t)]), config.loaded_latency_max_factor
                )
            return base

        lat = shadow_weight * config.shadow_access_latency
        for t in (TierKind.DRAM, TierKind.PMEM, TierKind.CXL):
            lat += weights[int(t)] * eff_latency(t)
        lat += weights[int(SWAP)] * config.swap_access_latency
        lat_mult = lat / dram_lat
    if phase.demand_bandwidth > 0 and phase.bw_frac > 0:
        bw_mult = phase.demand_bandwidth / max(achieved_bandwidth, 1e-9)
        bw_mult = max(1.0, bw_mult)
    else:
        bw_mult = 1.0
    slowdown = (
        phase.compute_frac
        + phase.lat_frac * lat_mult
        + phase.bw_frac * bw_mult
        + min(config.migration_overhead_cap, max(0.0, migration_penalty))
    )
    return float(min(max(slowdown, phase.compute_frac), config.max_slowdown))


unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def profiles(draw):
    """One access-profile row: idle, a normalised split, or raw weights."""
    kind = draw(st.sampled_from(["idle", "normalised", "raw"]))
    if kind == "idle":
        return np.zeros(PROFILE_WIDTH)
    raw = np.array(draw(st.lists(unit, min_size=PROFILE_WIDTH, max_size=PROFILE_WIDTH)))
    total = raw.sum()
    if kind == "normalised" and total > 0:
        raw = raw / total
    return raw


@st.composite
def phases(draw):
    compute = draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]) | unit)
    lat = draw(unit) * (1.0 - compute)
    bw = draw(st.sampled_from([0.0]) | st.just(1.0 - compute - lat))
    demand = draw(st.sampled_from([0.0, 1, GBps(1.0)]) | st.floats(0.0, 1e12))
    return SimpleNamespace(compute_frac=compute, lat_frac=lat, bw_frac=bw, demand_bandwidth=demand)


achieved = st.sampled_from([0.0, 1e-12, 1e-9, GBps(1.0)]) | st.floats(0.0, 1e12)

configs = st.builds(
    RateModelConfig,
    migration_overhead_cap=st.sampled_from([0.0, 0.08, 2.0]),
    max_slowdown=st.sampled_from([1.0, 1.5, 10.0, 1e5]),
    loaded_latency=st.booleans(),
    loaded_latency_max_factor=st.sampled_from([1.0, 4.0]),
)


class TestVectorKernelBitExact:
    """The node pass must reproduce the scalar formulation's floats: ``==``,
    never ``approx``, or run fingerprints and digests would drift."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(profiles(), phases(), achieved), min_size=1, max_size=6),
        config=configs,
        penalty=st.sampled_from([0.0, -1.0, 0.05, 5.0]) | st.floats(-1.0, 10.0),
        util=st.lists(st.floats(0.0, 1.5), min_size=4, max_size=4),
    )
    def test_slowdown_and_demand_match_scalar(self, rows, config, penalty, util):
        util = np.array(util)
        prof = np.array([r[0] for r in rows])
        ph = np.array([phase_row(r[1]) for r in rows], dtype=np.float64)
        ach = np.array([r[2] for r in rows], dtype=np.float64)
        got = slowdown_vector(
            prof, ph, ach, SPECS,
            migration_penalty=penalty, config=config, tier_bw_utilization=util,
        )
        demand = demand_matrix(prof, ph[:, 3])
        for i, (p, phs, a) in enumerate(rows):
            want = ref_phase_slowdown(
                phs, p[:-1].copy(), float(p[-1]), SPECS, a,
                migration_penalty=penalty, config=config, tier_bw_utilization=util,
            )
            assert float(got[i]) == want
            want_d = ref_tier_demand(p[:-1].copy(), float(p[-1]), phs.demand_bandwidth)
            assert demand[i].tolist() == want_d.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        tiers=st.lists(st.sampled_from([-1, 0, 1, 2, 3]), min_size=1, max_size=12),
        data=st.data(),
        config=configs,
    )
    def test_one_row_wrappers_match_scalar(self, tiers, data, config):
        """tier_demand / phase_slowdown on a real pageset == the scalar
        formulas over the same tier_access_profile."""
        n = len(tiers)
        ps = PageSet("t", n * CHUNK, CHUNK)
        for i, t in enumerate(tiers):
            if t >= 0:
                ps.assign(np.array([i]), TierKind(t))
        w = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)), dtype=np.float32)
        ps.set_access_weights(w)
        for i, t in enumerate(tiers):
            if t not in (-1, 0) and data.draw(st.booleans()):
                mark_shadowed(ps, i)
        phs = data.draw(phases())
        a = data.draw(achieved)
        util = np.array(data.draw(st.lists(st.floats(0.0, 1.5), min_size=4, max_size=4)))
        weights, sw = tier_access_profile(ps)
        got = phase_slowdown(phs, ps, SPECS, a, config=config, tier_bw_utilization=util)
        want = ref_phase_slowdown(
            phs, weights, sw, SPECS, a, config=config, tier_bw_utilization=util
        )
        assert got == want
        assert tier_demand(ps, phs.demand_bandwidth).tolist() == ref_tier_demand(
            weights, sw, phs.demand_bandwidth
        ).tolist()

    def test_clamp_and_penalty_cap_reached(self):
        """The property above covers these ranges; pin one concrete case of
        each so a strategy change can't silently stop exercising them."""
        prof = np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
        ph = np.array([[0.0, 1.0, 0.0, 0.0], [0.4, 0.4, 0.2, GBps(1.0)]])
        cfg = RateModelConfig(max_slowdown=10.0, migration_overhead_cap=0.08)
        got = slowdown_vector(prof, ph, np.array([GBps(1), GBps(1)]), SPECS,
                              migration_penalty=5.0, config=cfg)
        assert got[0] == 10.0
        assert got[1] == 1.0 + 0.08
