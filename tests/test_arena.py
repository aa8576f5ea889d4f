"""Reference and unit tests for the struct-of-arrays arena core.

The arena is the only exact simulation core.  Its kernels replaced
per-pageset Python loops, and every observable — tier placements,
movement decisions, victim lists, RNG stream consumption, task metrics,
scenario digests — must stay what those loops produced.  These tests pin
that contract two ways:

* property-based (hypothesis) state generation drives each arena kernel
  against a test-local verbatim copy of the per-pageset loop it
  replaced, asserting exact (bit-level) agreement of outputs and RNG
  stream positions;
* end-to-end runs — all four environments, the baseline policies, and
  fault injection (tier-offline + node crash) — hash full per-task
  metric fingerprints and compare them with digests recorded from the
  per-pageset loops before they were deleted.

Plus unit tests for the arena's own mechanics: adopt/release segment
reuse, growth re-pointing live views, and the write-through PageSet
array properties that keep external rebinds (``ps.temperature = ...``)
from detaching arena views.
"""

import enum
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import BACKEND_ARENA, BACKENDS, resolve_backend
from repro.core.flags import MemFlag
from repro.core.heatmap import PageHeatmap
from repro.core.manager import TieredMemoryManager
from repro.core.replacement import PageReplacementPolicy, is_protected
from repro.envs.environments import EnvKind
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.memory.pageset import UNMAPPED, PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, MEMORY_TIERS, PMEM, SWAP
from repro.policies.autonuma import AutoNumaPolicy
from repro.policies.base import PolicyContext
from repro.policies.interleave import UniformInterleavePolicy
from repro.policies.linux import global_coldest
from repro.util.rng import RngFactory
from repro.workflows.ensembles import paper_batch

from conftest import CHUNK, small_specs

EQ = settings(max_examples=100, deadline=None)


def boundary_or_any(data, sizes):
    """A victim/scan size: half the time next to one of ``sizes`` (where
    the cut between protection classes or a per-task pool cap falls),
    else anywhere in 0..60."""
    near = sorted({max(0, n + d) for n in sizes for d in (-1, 0, 1)})
    return data.draw(st.one_of(st.sampled_from(near), st.integers(0, 60)))


TIER_VALUES = (int(DRAM), int(PMEM), int(CXL), int(SWAP), int(UNMAPPED))
FLAG_CHOICES = (MemFlag.NONE, MemFlag.LAT, MemFlag.BW, MemFlag.SHL)


# --------------------------------------------------------------------------- #
# randomized node states
# --------------------------------------------------------------------------- #


@st.composite
def node_states(draw, max_tasks=4, max_chunks=40):
    """A list of per-task states: tiers, temperatures, pinned bits, flags."""
    n_tasks = draw(st.integers(1, max_tasks))
    tasks = []
    for _ in range(n_tasks):
        n = draw(st.integers(1, max_chunks))
        tasks.append(
            {
                "n": n,
                "chunk": CHUNK * draw(st.sampled_from([1, 2])),
                "tiers": draw(
                    st.lists(st.sampled_from(TIER_VALUES), min_size=n, max_size=n)
                ),
                "temps": draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=1.0, width=32),
                        min_size=n,
                        max_size=n,
                    )
                ),
                "pinned": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                "shadow": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                "flags": draw(st.sampled_from(FLAG_CHOICES)),
            }
        )
    return tasks


def build_node(tasks, seed=11):
    """Stand up an exact-core node with the given task states applied.

    Arrays are written through the PageSet properties *after* register,
    exactly the rebind pattern external code uses — so this also
    exercises the write-through path on every example.
    """
    node = NodeMemorySystem(small_specs(), "eq", backend=BACKEND_ARENA)
    ctx = PolicyContext(memory=node, rng=np.random.default_rng(seed))
    flags = {}
    for i, td in enumerate(tasks):
        ps = PageSet(f"t{i}", td["n"] * td["chunk"], td["chunk"])
        ps.region[:] = 0
        ps.region_flags[0] = td["flags"]
        node.register(ps)
        ps.tier = np.asarray(td["tiers"], dtype=ps.tier.dtype)
        ps.temperature = np.asarray(td["temps"], dtype=np.float32)
        ps.access_weight = np.asarray(td["temps"], dtype=np.float32) ** 2
        ps.pinned = np.asarray(td["pinned"], dtype=bool)
        ps.in_page_cache = np.asarray(td["shadow"], dtype=bool)
        flags[ps.owner] = td["flags"]
    return node, ctx, flags


def canon(victims):
    """Victim lists compare by owner order AND per-owner chunk order."""
    return [(ps.owner, idx.tolist()) for ps, idx in victims]


# --------------------------------------------------------------------------- #
# reference loops: the per-pageset code each arena kernel replaced, kept
# verbatim (bar the function signatures) as the oracle for the kernels
# --------------------------------------------------------------------------- #


def ref_advance_node(heat, memory, dt, rates=None):
    """``PageHeatmap.advance_node`` as a per-pageset loop."""
    if dt <= 0:
        return
    for ps in memory.pagesets():
        rate = 1.0 if rates is None else rates.get(ps.owner, 0.0)
        if rate <= 0.0 and not ps.temperature.any():
            continue
        heat.advance(ps, dt, rate)


def ref_select_victims(owner_flags, ctx, need_chunks, protect_owner=None):
    """``PageReplacementPolicy.select_victims`` as a two-level sort."""
    if need_chunks <= 0:
        return []
    ordered = []
    for order_key, ps in enumerate(ctx.memory.pagesets()):
        if ps.owner == protect_owner:
            continue
        protected = 1 if is_protected(owner_flags(ps.owner)) else 0
        cand = ps.coldest_in(DRAM, need_chunks)
        for i in cand:
            ordered.append((protected, float(ps.temperature[i]), order_key, ps, int(i)))
    ordered.sort(key=lambda e: (e[0], e[1], e[2], e[4]))
    chosen = ordered[:need_chunks]
    grouped = {}
    for _, _, _, ps, i in chosen:
        grouped.setdefault(ps.owner, (ps, []))[1].append(i)
    return [(ps, np.asarray(idx, dtype=np.int64)) for ps, idx in grouped.values()]


def ref_global_coldest(
    ctx, tier, max_chunks, *, include_pinned=False, skip_owners=frozenset(), scan_noise=0.0
):
    """``policies.linux.global_coldest`` as a per-pageset merge, including
    its single ``rng.choice`` draw for the scan noise."""
    if max_chunks <= 0:
        return []
    n_noise = int(round(max_chunks * scan_noise)) if scan_noise > 0 else 0
    n_cold = max_chunks - n_noise
    entries = []
    pools = []
    for order_key, ps in enumerate(ctx.memory.pagesets()):
        if ps.owner in skip_owners:
            continue
        cand = ps.coldest_in(tier, max_chunks, include_pinned=include_pinned)
        for i in cand:
            entries.append((float(ps.temperature[i]), order_key, ps, int(i)))
        if n_noise and cand.size:
            pools.append((ps, cand))
    entries.sort(key=lambda e: (e[0], e[1], e[3]))
    grouped = {}

    def take(ps, i):
        grouped.setdefault(ps.owner, (ps, set()))[1].add(i)

    for _, _, ps, i in entries[:n_cold]:
        take(ps, i)
    if n_noise and pools:
        # uniformly-random victims over all candidate chunks on the node
        sizes = np.array([c.size for _, c in pools], dtype=np.int64)
        total = int(sizes.sum())
        picks = ctx.rng.choice(total, size=min(n_noise, total), replace=False)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        for p in picks:
            k = int(np.searchsorted(offsets, p, side="right")) - 1
            ps, cand = pools[k]
            take(ps, int(cand[p - offsets[k]]))
    return [
        (ps, np.asarray(sorted(idx), dtype=np.int64)) for ps, idx in grouped.values()
    ]


def ref_evictable_map(mgr, ctx, protect_owner):
    """``TieredMemoryManager._evictable_map`` as a per-tier x per-task scan."""
    mem = ctx.memory
    out = {}
    for tier in MEMORY_TIERS:
        avail = max(0, mem.free(tier) - mgr.staging_buffers.get(tier, 0))
        for other in mem.pagesets():
            if other.owner == protect_owner:
                continue
            in_tier = other.chunks_in(tier)
            if in_tier.size == 0:
                continue
            cold = in_tier[
                (~other.pinned[in_tier])
                & (other.temperature[in_tier] <= mgr.cold_threshold)
            ]
            avail += int(cold.size) * other.chunk_size
        out[tier] = avail
    return out


def ref_hot_candidates(ps, tier, max_chunks, min_temperature):
    """The movement daemon's promotion candidates: top-k, then threshold."""
    if not ps.counts_by_tier()[int(tier)]:
        return np.empty(0, dtype=np.intp)
    hot = ps.hottest_in(tier, max_chunks)
    return hot[ps.temperature[hot] >= min_temperature]


def ref_cold_candidates(ps, tier, max_chunks, max_temperature):
    """The movement daemon's proactive-swap candidates: top-k, then threshold."""
    cold = ps.coldest_in(tier, max_chunks)
    return cold[ps.temperature[cold] <= max_temperature]


# --------------------------------------------------------------------------- #
# kernels against the reference loops (property-based)
# --------------------------------------------------------------------------- #


class TestKernelEquivalence:
    @EQ
    @given(tasks=node_states(), dt=st.sampled_from([0.25, 1.0, 3.5]))
    def test_heatmap_advance_bit_identical(self, tasks, dt):
        heat = PageHeatmap()
        rates = {f"t{i}": (0.0, 0.6, 1.7)[i % 3] for i in range(len(tasks))}
        node_k, _, _ = build_node(tasks)
        node_r, _, _ = build_node(tasks)
        heat.advance_node(node_k, dt, rates)
        ref_advance_node(heat, node_r, dt, rates)
        temps = [
            np.concatenate([ps.temperature for ps in node.pagesets()])
            for node in (node_k, node_r)
        ]
        assert np.array_equal(temps[0], temps[1])  # exact, not approx

    @EQ
    @given(tasks=node_states(), protect=st.booleans(), data=st.data())
    def test_select_victims_identical(self, tasks, protect, data):
        node, ctx, flags = build_node(tasks)
        pol = PageReplacementPolicy(lambda o: flags[o])
        owner = "t0" if protect else None
        unprotected = sum(
            int(np.count_nonzero((ps.tier == int(DRAM)) & ~ps.pinned))
            for ps in node.pagesets()
            if ps.owner != owner and not is_protected(flags[ps.owner])
        )
        k = boundary_or_any(data, [unprotected])
        kernel = canon(pol.select_victims(ctx, k, protect_owner=owner))
        assert kernel == canon(ref_select_victims(pol.owner_flags, ctx, k, owner))

    @EQ
    @given(
        tasks=node_states(),
        noise=st.sampled_from([0.0, 0.35, 1.0]),
        tier=st.sampled_from([DRAM, SWAP]),
        pinned_ok=st.booleans(),
        skip=st.booleans(),
        data=st.data(),
    )
    def test_global_coldest_identical_including_rng_stream(
        self, tasks, noise, tier, pinned_ok, skip, data
    ):
        # per-task candidate counts: where the noise pools' cap bites
        counts = [
            sum(
                1
                for t, pinned in zip(td["tiers"], td["pinned"])
                if t == int(tier) and (pinned_ok or not pinned)
            )
            for td in tasks
        ]
        k = max(1, boundary_or_any(data, counts))
        results, probes = [], []
        for scan in (global_coldest, ref_global_coldest):
            node, ctx, _ = build_node(tasks, seed=23)
            out = scan(
                ctx,
                tier,
                k,
                include_pinned=pinned_ok,
                skip_owners=frozenset({"t0"}) if skip else frozenset(),
                scan_noise=noise,
            )
            results.append(canon(out))
            # both paths must consume the same number of draws from the
            # shared stream, or later policy decisions diverge silently
            probes.append(int(ctx.rng.integers(1 << 30)))
        assert results[0] == results[1]
        assert probes[0] == probes[1]

    @EQ
    @given(
        tasks=node_states(),
        k=st.integers(1, 30),
        thr=st.floats(min_value=0.0, max_value=1.0, width=32),
    )
    def test_movement_candidates_identical(self, tasks, k, thr):
        node, _, _ = build_node(tasks)
        for ps in node.pagesets():
            for tier in (DRAM, PMEM, CXL, SWAP):
                hot = ps.arena.hot_chunks(ps, tier, k, min_temperature=thr)
                assert np.array_equal(hot, ref_hot_candidates(ps, tier, k, thr))
                cold = ps.arena.cold_chunks(ps, tier, k, max_temperature=thr)
                assert np.array_equal(cold, ref_cold_candidates(ps, tier, k, thr))

    @EQ
    @given(
        tasks=node_states(),
        thr=st.floats(min_value=0.0, max_value=1.0, width=32),
        staging=st.sampled_from([0.0, 0.02, 0.5]),
    )
    def test_evictable_map_identical(self, tasks, thr, staging):
        node, ctx, _ = build_node(tasks)
        mgr = TieredMemoryManager(
            small_specs(), cold_threshold=float(thr), staging_fraction=staging
        )
        ev = mgr._evictable_map(ctx, protect_owner="t0")
        expect = ref_evictable_map(mgr, ctx, "t0")
        assert {t: ev.available[t] for t in MEMORY_TIERS} == expect

    @EQ
    @given(tasks=node_states(), thr=st.floats(min_value=0.0, max_value=1.0, width=32))
    def test_reductions_match_object_accounting(self, tasks, thr):
        """Whole-arena reductions against per-pageset sums over the views."""
        node, _, flags = build_node(tasks)
        arena = node.arena
        # per-task/tier counts against each pageset's counts_by_tier
        counts = arena.counts_by_task_tier()
        for ps in node.pagesets():
            slot = arena._tasks[ps.owner].slot
            expect = ps.counts_by_tier()
            assert counts[slot].tolist() == [int(c) for c in expect]
        # tier byte totals and shadow bytes
        used = arena.used_bytes_by_tier()
        for tier in (DRAM, PMEM, CXL, SWAP):
            expect_bytes = sum(
                int((ps.tier == int(tier)).sum()) * ps.chunk_size
                for ps in node.pagesets()
            )
            assert int(used[int(tier)]) == expect_bytes
        expect_shadow = sum(
            int(ps.in_page_cache.sum()) * ps.chunk_size for ps in node.pagesets()
        )
        assert arena.shadow_bytes() == expect_shadow
        # Algorithm 1's evictable map: cold, unpinned, unprotected
        ev = arena.evictable_bytes((DRAM, PMEM, CXL), thr, protect_owner="t0")
        for tier in (DRAM, PMEM, CXL):
            expect_bytes = sum(
                int(
                    (
                        (ps.tier == int(tier))
                        & ~ps.pinned
                        & (ps.temperature <= thr)
                    ).sum()
                )
                * ps.chunk_size
                for ps in node.pagesets()
                if ps.owner != "t0"
            )
            assert ev[tier] == expect_bytes


# --------------------------------------------------------------------------- #
# end-to-end: whole runs against recorded fingerprints
# --------------------------------------------------------------------------- #


def _canonical(x):
    """JSON-ready form of a fingerprint or ledger: enums by name, numpy
    scalars as Python values, floats as exact hex strings."""
    if isinstance(x, enum.Enum):
        return x.name
    if isinstance(x, np.generic):
        return _canonical(x.item())
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, (tuple, list)):
        return [_canonical(v) for v in x]
    if isinstance(x, dict):
        return sorted([_canonical(k), _canonical(v)] for k, v in x.items())
    if x is None or isinstance(x, (int, str, bool)):
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def result_digest(x):
    """Short sha256 of :func:`_canonical` — bit-exact, order-sensitive."""
    return hashlib.sha256(json.dumps(_canonical(x)).encode()).hexdigest()[:16]


def metrics_fingerprint(m):
    return [
        (
            t.owner,
            t.wclass,
            t.submitted_at,
            t.scheduled_at,
            t.started_at,
            t.finished_at,
            t.failed,
            t.failure_reason,
            t.major_faults,
            t.minor_faults,
            t.oom_kills,
            t.retries,
            tuple(t.phase_durations),
        )
        for t in sorted(m.tasks(), key=lambda t: t.owner)
    ]


def run_small_metrics(backend, kind, policy_factory=None, faults=None):
    """One small cluster run under ``backend``; returns the full registry."""
    from repro.experiments.common import build_env

    specs = paper_batch(12, scale=1 / 128, rng_factory=RngFactory(5))
    saved = os.environ.get("REPRO_CORE")
    os.environ["REPRO_CORE"] = backend
    try:
        env = build_env(
            kind, specs, dram_fraction=0.3, n_nodes=2, policy_factory=policy_factory
        )
        assert env.topology.nodes[0].backend == backend
        if faults is not None:
            env.inject_faults(faults, seed=3)
        metrics = env.run_batch(specs, max_time=1e7)
        env.stop()
    finally:
        if saved is None:
            os.environ.pop("REPRO_CORE", None)
        else:
            os.environ["REPRO_CORE"] = saved
    return metrics


def run_small_batch(backend, kind, policy_factory=None, faults=None):
    """One small cluster run under ``backend``; returns a metric fingerprint."""
    return metrics_fingerprint(run_small_metrics(backend, kind, policy_factory, faults))


ENV_CASES = [
    ("IE-linux", EnvKind.IE, None),
    ("CBE-linux", EnvKind.CBE, None),
    ("TME-tpp", EnvKind.TME, None),
    ("IMME-manager", EnvKind.IMME, None),
    ("TME-autonuma", EnvKind.TME, lambda specs: AutoNumaPolicy()),
    ("TME-interleave", EnvKind.TME, lambda specs: UniformInterleavePolicy()),
]


#: :func:`result_digest` of :func:`run_small_batch` per case, recorded from
#: the per-pageset ("object") core before it was deleted; the arena core
#: must reproduce every per-task metric timeline bit for bit
RECORDED_FINGERPRINTS = {
    "IE-linux": "6428e6ca82355555",
    "CBE-linux": "0c054421d32d462b",
    "TME-tpp": "1391c6e20a41842e",
    "IMME-manager": "4216d17b380a0c41",
    "TME-autonuma": "d1ce1f65afc7108e",
    "TME-interleave": "1903c1ded59dfee1",
    "IMME-faults": "b2d0762246b9c496",
}


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "label,kind,policy_factory", ENV_CASES, ids=[c[0] for c in ENV_CASES]
    )
    def test_environments_and_policies(self, label, kind, policy_factory):
        """The paper's class mix through every environment/policy: the
        per-task metric timelines match the recorded fingerprints."""
        fp = run_small_batch(BACKEND_ARENA, kind, policy_factory)
        assert result_digest(fp) == RECORDED_FINGERPRINTS[label]

    def test_fault_injection(self):
        """Tier-offline evacuation and a node crash mid-run: the fault
        paths (offline_tier, crash/interrupt, requeue) match the record."""
        schedule = FaultSchedule(
            [
                FaultSpec(FaultKind.TIER_OFFLINE, time=3.0, node=0, tier=PMEM,
                          duration=10.0),
                FaultSpec(FaultKind.NODE_CRASH, time=6.0, node=1, duration=15.0),
            ]
        )
        fp = run_small_batch(BACKEND_ARENA, EnvKind.IMME, faults=schedule)
        assert result_digest(fp) == RECORDED_FINGERPRINTS["IMME-faults"]

    def test_scenario_digests_backend_invariant(self, monkeypatch):
        """Digests hash the scenario *spec*; the backend is a runtime
        switch and must never perturb them (the cache keys on digests)."""
        from repro.scenarios import REGISTRY

        names = REGISTRY.family_names()[:3]
        digests = []
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_CORE", backend)
            digests.append([REGISTRY.family(n).digest() for n in names])
        assert digests[0] == digests[1]


# --------------------------------------------------------------------------- #
# arena mechanics
# --------------------------------------------------------------------------- #


def arena_node(n_tasks=3, chunks=16):
    node = NodeMemorySystem(small_specs(), "mech", backend=BACKEND_ARENA)
    sets = []
    for i in range(n_tasks):
        ps = PageSet(f"t{i}", chunks * CHUNK, CHUNK)
        ps.region[:] = 0
        ps.region_flags[0] = MemFlag.NONE
        node.register(ps)
        sets.append(ps)
    return node, sets


class TestArenaMechanics:
    def test_adopt_binds_views(self):
        node, sets = arena_node()
        arena = node.arena
        for ps in sets:
            assert ps.arena is arena
            assert ps.temperature.base is arena.temperature
            assert ps.tier.base is arena.tier
        node.validate()

    def test_write_through_rebind_stays_bound(self):
        node, (ps, *_) = arena_node(n_tasks=1)
        arena = node.arena
        fresh = np.linspace(0, 1, ps.n_chunks, dtype=np.float32)
        ps.temperature = fresh  # external rebind, the bench/test idiom
        assert ps.temperature.base is arena.temperature
        assert np.array_equal(ps.temperature, fresh)
        start = arena._tasks[ps.owner].start
        assert np.array_equal(arena.temperature[start : start + ps.n_chunks], fresh)

    def test_augmented_assignment_works_in_place(self):
        node, (ps, *_) = arena_node(n_tasks=1)
        ps.temperature = np.full(ps.n_chunks, 0.5, dtype=np.float32)
        ps.temperature *= np.float32(2.0)
        assert ps.temperature.base is node.arena.temperature
        assert np.all(ps.temperature == np.float32(1.0))

    def test_release_zeroes_and_reuses_segment(self):
        node, sets = arena_node(n_tasks=3)
        arena = node.arena
        victim = sets[1]
        start, n = arena._tasks[victim.owner].start, victim.n_chunks
        victim.temperature = np.ones(n, dtype=np.float32)
        node.unregister(victim)
        # detached copy keeps its values; arena segment is scrubbed
        assert victim.arena is None
        assert np.all(victim.temperature == 1.0)
        assert np.all(arena.tier[start : start + n] == UNMAPPED)
        assert np.all(arena.task_id[start : start + n] == -1)
        # a same-size newcomer lands in the freed slot and segment
        ps_new = PageSet("fresh", n * CHUNK, CHUNK)
        ps_new.region[:] = 0
        ps_new.region_flags[0] = MemFlag.NONE
        node.register(ps_new)
        assert arena._tasks["fresh"].start == start
        node.validate()

    def test_second_arena_refuses_an_adopted_pageset(self):
        node, (ps, *_) = arena_node(n_tasks=1)
        other = NodeMemorySystem(small_specs(), "other", backend=BACKEND_ARENA)
        with pytest.raises(Exception, match="adopted by another arena"):
            other.register(ps)
        node.unregister(ps)  # standalone again: any node may adopt it
        other.register(ps)
        assert ps.arena is other.arena
        other.validate()

    def test_growth_preserves_live_views_and_values(self):
        node = NodeMemorySystem(small_specs(), "grow", backend=BACKEND_ARENA)
        arena = node.arena
        ps1 = PageSet("big1", 800 * CHUNK, CHUNK)
        ps1.region[:] = 0
        ps1.region_flags[0] = MemFlag.NONE
        node.register(ps1)
        marker = np.arange(800, dtype=np.float32) / 800.0
        ps1.temperature = marker
        cap_before = arena.capacity
        ps2 = PageSet("big2", 800 * CHUNK, CHUNK)
        ps2.region[:] = 0
        ps2.region_flags[0] = MemFlag.NONE
        node.register(ps2)  # 1600 chunks: forces a grow
        assert arena.capacity > cap_before
        # ps1's views were re-pointed at the new storage, values intact
        assert ps1.temperature.base is arena.temperature
        assert np.array_equal(ps1.temperature, marker)
        node.validate()

    def test_validate_detects_detached_view(self):
        node, (ps, *_) = arena_node(n_tasks=1)
        # simulate the bug write-through properties exist to prevent:
        # a raw rebind that silently detaches the arena view
        object.__setattr__(ps, "_temperature", ps.temperature.copy())
        with pytest.raises(Exception):
            node.validate()


class TestBackendResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "arena-fast")
        assert resolve_backend(BACKEND_ARENA) == BACKEND_ARENA

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "arena-fast")
        assert resolve_backend() == "arena-fast"
        monkeypatch.delenv("REPRO_CORE")
        assert resolve_backend() == BACKEND_ARENA
        assert BACKENDS == (BACKEND_ARENA, "arena-fast")

    def test_invalid_rejected(self, monkeypatch):
        # "object" named the per-pageset core, which is gone: no alias
        for name in ("vectorised", "object"):
            monkeypatch.setenv("REPRO_CORE", name)
            with pytest.raises(Exception, match="unknown core backend"):
                resolve_backend()
            with pytest.raises(Exception, match="unknown core backend"):
                NodeMemorySystem(small_specs(), "bad", backend=name)
