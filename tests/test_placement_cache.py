"""Placement versions and the summaries memoised under them.

Every writer of a pageset's ``tier``, ``access_weight`` or
``in_page_cache`` bumps its ``placement_version``; the rate model's
per-task access profile and the movement daemon's per-tier chunk counts
are recomputed only when that version moves.  These tests pin who bumps
(and who must not), and run a fault-heavy IMME batch under every core
with the invariant checker comparing each memoised summary against a
fresh recomputation.
"""

import os

import numpy as np
import pytest

from repro.core.arena import BACKEND_ARENA, BACKENDS, NodeArena
from repro.core.flags import MemFlag
from repro.envs.environments import EnvKind
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.resilience import invariants
from repro.resilience.invariants import InvariantChecker, InvariantViolation
from repro.runtime import rates
from repro.runtime.execution import TaskState
from repro.util.rng import RngFactory
from repro.workflows.ensembles import paper_batch

from conftest import CHUNK, small_specs


def fresh_ps(n=8):
    ps = PageSet("t", n * CHUNK, CHUNK)
    ps.region[:] = 0
    ps.region_flags[0] = MemFlag.NONE
    return ps


def bumps(ps, fn):
    before = ps.placement_version
    fn()
    return ps.placement_version - before


# --------------------------------------------------------------------------- #
# the version contract
# --------------------------------------------------------------------------- #


class TestVersionContract:
    @pytest.mark.parametrize("adopted", [False, True], ids=["object", "arena"])
    def test_pageset_writers_bump(self, adopted):
        ps = fresh_ps()
        if adopted:
            NodeArena().adopt(ps)
        idx = np.arange(4)
        assert bumps(ps, lambda: ps.assign(idx, DRAM)) == 1
        assert bumps(ps, lambda: ps.unmap(idx[:2])) == 1
        assert bumps(ps, lambda: ps.unmap()) == 1
        assert bumps(ps, lambda: ps.set_access_weights(np.ones(8, np.float32))) == 1
        assert bumps(ps, ps.clear_access_weights) == 1
        for field in ("tier", "access_weight", "in_page_cache"):
            arr = getattr(ps, field).copy()
            assert bumps(ps, lambda: setattr(ps, field, arr)) == 1, field

    @pytest.mark.parametrize("adopted", [False, True], ids=["object", "arena"])
    def test_heat_pin_and_region_writes_do_not_bump(self, adopted):
        """The heatmap rewrites temperature every tick; bumping on it
        would invalidate every memo on every tick."""
        ps = fresh_ps()
        if adopted:
            NodeArena().adopt(ps)
        assert bumps(ps, lambda: setattr(ps, "temperature", np.ones(8, np.float32))) == 0
        assert bumps(ps, lambda: setattr(ps, "pinned", np.ones(8, bool))) == 0
        assert bumps(ps, lambda: setattr(ps, "region", np.zeros(8, np.int16))) == 0

    def test_adopt_and_release_bump(self):
        arena = NodeArena()
        ps = fresh_ps()
        assert bumps(ps, lambda: arena.adopt(ps)) == 1
        assert bumps(ps, lambda: arena.release(ps)) == 1

    def test_shadow_add_drop_and_reclaim_bump(self):
        node = NodeMemorySystem(small_specs(), "n")
        ps = fresh_ps()
        node.register(ps)
        node.place(ps, np.arange(4), CXL)
        assert bumps(ps, lambda: node.add_page_cache_shadow(ps, np.arange(2))) == 1
        # arriving in DRAM drops the shadow (and reassigns the tier)
        assert bumps(ps, lambda: node.migrate(ps, np.array([0]), DRAM)) >= 2
        assert ps.in_page_cache.tolist()[:2] == [False, True]
        before = ps.placement_version
        node._reclaim_page_cache(CHUNK)
        assert not ps.in_page_cache.any()
        assert ps.placement_version > before

    def test_batch_kernels_bump_exactly_the_owners_they_touch(self):
        node = NodeMemorySystem(small_specs(), "n", backend=BACKEND_ARENA)
        sets = []
        for i in range(3):
            ps = PageSet(f"t{i}", 4 * CHUNK, CHUNK)
            node.register(ps)
            node.place(ps, np.arange(4), CXL)
            sets.append(ps)
        arena = node.arena
        a, b, c = sets
        versions = [ps.placement_version for ps in sets]
        arena.migrate_batch(np.array([a.arena_start, c.arena_start + 1]), PMEM)
        assert [ps.placement_version - v for ps, v in zip(sets, versions)] == [1, 0, 1]
        versions = [ps.placement_version for ps in sets]
        arena.shadow_batch(np.array([b.arena_start + 2]), 10 * CHUNK)
        assert [ps.placement_version - v for ps, v in zip(sets, versions)] == [0, 1, 0]


class TestCachedCountsByTier:
    def test_memo_is_shared_read_only_and_follows_the_version(self):
        ps = fresh_ps()
        ps.assign(np.arange(3), CXL)
        counts = ps.cached_counts_by_tier()
        assert counts.tolist() == [0, 0, 3, 0]
        assert ps.cached_counts_by_tier() is counts
        with pytest.raises(ValueError):
            counts[0] = 1
        ps.assign(np.arange(2), SWAP)
        assert ps.cached_counts_by_tier().tolist() == [0, 0, 1, 2]


# --------------------------------------------------------------------------- #
# the runtime memo
# --------------------------------------------------------------------------- #


def run_batch(backend, *, flood_at=(), faults=True):
    """A small two-node IMME batch under ``backend``; ``flood_at`` times
    fill each node's free DRAM with page-cache shadows, so later DRAM
    placements and promotions must reclaim them."""
    from repro.experiments.common import build_env

    specs = paper_batch(12, scale=1 / 128, rng_factory=RngFactory(5))
    saved = os.environ.get("REPRO_CORE")
    os.environ["REPRO_CORE"] = backend
    try:
        env = build_env(EnvKind.IMME, specs, dram_fraction=0.3, n_nodes=2)
        if faults:
            env.inject_faults(
                FaultSchedule(
                    [
                        FaultSpec(FaultKind.TIER_OFFLINE, time=3.0, node=0, tier=PMEM,
                                  duration=10.0),
                        FaultSpec(FaultKind.NODE_CRASH, time=6.0, node=1, duration=15.0),
                    ]
                ),
                seed=3,
            )

        def flood():
            for agent in env.agents:
                mem = agent.memory
                for ps in list(mem.pagesets()):
                    slow = np.flatnonzero((ps.tier != -1) & (ps.tier != int(DRAM)))
                    mem.add_page_cache_shadow(ps, slow)

        for t in flood_at:
            env.engine.schedule_at(t, flood, "test.flood")
        metrics = env.run_batch(specs, max_time=1e7)
        env.stop()
    finally:
        if saved is None:
            os.environ.pop("REPRO_CORE", None)
        else:
            os.environ["REPRO_CORE"] = saved
    return env, metrics


class TestProfileMemo:
    def test_profile_computed_once_per_placement_change(self, monkeypatch):
        calls = []
        real = rates.tier_access_profile

        def counting(ps):
            calls.append(ps.owner)
            return real(ps)

        monkeypatch.setattr(rates, "tier_access_profile", counting)
        from repro.runtime.node_agent import NodeAgent

        served = []
        real_recompute = NodeAgent.recompute_rates

        def recompute(agent):
            served.append(
                sum(1 for te in agent.running.values() if te.state is TaskState.RUNNING)
            )
            return real_recompute(agent)

        monkeypatch.setattr(NodeAgent, "recompute_rates", recompute)
        run_batch("object", faults=False)
        assert sum(served) > 0
        # the scalar path computed two profiles per task per recompute
        assert len(calls) < 0.5 * sum(served)

    def test_unbumped_write_is_caught_by_the_checker(self):
        """An element write that skips the version bump leaves a stale memo;
        the coherence check must notice it at the next rate recompute."""
        from test_faults import make_agent, task_with_image

        from repro.metrics.collector import MetricsRegistry
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        agent = make_agent(engine, MetricsRegistry())
        te = agent.start_task(task_with_image("t0", base_time=30.0))
        engine.run(until=1.0)
        assert te.state is TaskState.RUNNING
        agent.recompute_rates()
        ps = te.pageset
        hot = int(np.argmax(ps.access_weight))
        ps.tier[hot] = int(SWAP) if ps.tier[hot] != int(SWAP) else int(DRAM)
        with invariants.session(InvariantChecker()):
            with pytest.raises(InvariantViolation, match="stale access profile"):
                agent.recompute_rates()
            ps.bump_placement_version()
            agent.recompute_rates()


class TestCoherenceAcrossCores:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_faulted_batch_with_reclaim_keeps_every_memo_coherent(self, backend, monkeypatch):
        """Tier-offline evacuation, a node crash and DRAM page-cache
        reclaim under each core, with every memoised profile and tier
        count checked against a fresh recomputation as it is used."""
        reclaimed = []
        real = NodeMemorySystem._reclaim_page_cache

        def reclaim(mem, nbytes):
            before = mem.page_cache_used
            real(mem, nbytes)
            reclaimed.append(before - mem.page_cache_used)

        monkeypatch.setattr(NodeMemorySystem, "_reclaim_page_cache", reclaim)
        with invariants.session(InvariantChecker()) as checker:
            env, metrics = run_batch(backend, flood_at=(1.5, 3.0, 6.0))
        assert checker.violations == []
        assert checker.cache_checks > 1000
        assert sum(reclaimed) > 0
        assert metrics.faults.tier_evacuations >= 1
        assert metrics.faults.tasks_interrupted >= 1
        for agent in env.agents:
            agent.memory.validate()
