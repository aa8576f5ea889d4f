"""Statistical-equivalence contract for the ``arena-fast`` backend.

``arena-fast`` trades the exact ``arena`` core's chunk-for-chunk
movement semantics for whole-node batched kernels.  Its contract, pinned here and
documented in docs/performance.md, has three clauses:

1. **Exact outside IMME.**  The batched paths are only reachable through
   the IMME movement daemon, so the IE/CBE/TME environments and every
   baseline policy must stay *bit-identical* to the exact core — full
   per-task metric fingerprints, the ones tests/test_arena.py pins
   against recorded digests.

2. **Statistically equivalent inside IMME.**  Scenario-level outcomes
   (makespan, startup, fault totals, latency percentiles) must agree
   with the exact core within the declared tolerance bands in
   :data:`BANDS`; completion and failure *counts* must agree exactly,
   including under fault injection.

3. **Spec artifacts are backend-invariant.**  Scenario digests (the
   result-cache keys) never move with ``REPRO_CORE``.

The scenario sweep samples every registered family (one member each,
preferring an IMME member since that is where the backends diverge) so a
new family cannot land outside the contract unnoticed.
"""

import os

import numpy as np
import pytest

from repro.core.movement import IntelligentPageMovement, MovementConfig
from repro.core.replacement import PageReplacementPolicy
from repro.core.arena import BACKEND_ARENA, BACKEND_ARENA_FAST, BACKENDS
from repro.core.flags import MemFlag
from repro.envs.environments import EnvKind
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import DRAM, PMEM, SWAP
from repro.policies.base import PolicyContext
from repro.scenarios.build import run_scenario
from repro.scenarios.registry import REGISTRY, _ensure_catalog
from repro.util.units import MiB

from conftest import make_pageset, small_specs
from test_arena import ENV_CASES, metrics_fingerprint, run_small_metrics

FAST = BACKEND_ARENA_FAST

#: Relative tolerance per aggregate, arena-fast vs arena, for IMME runs.
#: These are the *declared* bands from docs/performance.md — widening one
#: is a contract change and needs a matching docs edit.  Calibration
#: across every registry family puts the worst observed deviation at
#: ~20% makespan / ~15% p95 execution (ext-shared-inputs, in arena-fast's
#: favor: batched shadowing keeps shared inputs page-cached longer);
#: every other family sits under 3%.
BANDS = {
    "makespan": 0.25,
    "mean_startup": 0.15,
    "minor_faults": 0.35,
    "major_faults": 0.35,
    "latency_p95": 0.20,
}


def assert_band(name, fast_value, exact_value, rel=None, abs_floor=1e-9):
    rel = BANDS[name] if rel is None else rel
    tol = max(abs_floor, rel * abs(exact_value))
    assert abs(fast_value - exact_value) <= tol, (
        f"{name}: arena-fast={fast_value!r} vs arena={exact_value!r} "
        f"exceeds the declared ±{rel:.0%} band"
    )


# --------------------------------------------------------------------------- #
# clause 1: bit-exact wherever the fast paths are unreachable
# --------------------------------------------------------------------------- #


class TestExactOutsideImme:
    @pytest.mark.parametrize(
        "kind,policy_factory",
        [(k, p) for _, k, p in ENV_CASES if k is not EnvKind.IMME],
        ids=[label for label, k, _ in ENV_CASES if k is not EnvKind.IMME],
    )
    def test_non_imme_envs_bit_identical(self, kind, policy_factory):
        fps = [
            metrics_fingerprint(run_small_metrics(b, kind, policy_factory))
            for b in (BACKEND_ARENA, FAST)
        ]
        assert fps[0] == fps[1]

    def test_fast_node_actually_runs_the_batched_kernels(self):
        """Guard against the dispatch silently falling back to the exact
        path (which would make every equivalence test above vacuous)."""
        node = NodeMemorySystem(small_specs(), "fast", backend=FAST)
        assert node.fast_core and node.arena is not None
        ctx = PolicyContext(memory=node, rng=np.random.default_rng(0))
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:] = 1.0
        replacement = PageReplacementPolicy(lambda o: MemFlag.NONE)
        movement = IntelligentPageMovement(
            lambda o: MemFlag.NONE, replacement, MovementConfig()
        )
        before = node.arena.kernel_invocations
        movement.tick(ctx, promote_budget_bytes=MiB(1))
        assert node.arena.kernel_invocations > before
        assert ps.bytes_in(DRAM) > 0  # and the promotion actually happened
        node.validate()


# --------------------------------------------------------------------------- #
# clause 2: IMME within bands
# --------------------------------------------------------------------------- #


def aggregates(metrics):
    tasks = list(metrics.tasks())
    return {
        "n_tasks": len(tasks),
        "completed": len(metrics.completed()),
        "failed": len(metrics.failed()),
        "makespan": metrics.makespan(),
        "mean_startup": metrics.mean_startup_time(),
        "minor_faults": sum(t.minor_faults for t in tasks),
        "major_faults": sum(t.major_faults for t in tasks),
        "oom_kills": sum(t.oom_kills for t in tasks),
        "retries": sum(t.retries for t in tasks),
        "latency_p95": metrics.percentiles("execution_time")[1],
    }


def assert_imme_equivalent(fast, exact):
    # counts are part of the *exact* clause even inside IMME: the batched
    # daemon may move different chunks, but it must not change what the
    # cluster accomplishes
    for name in ("n_tasks", "completed", "failed", "oom_kills", "retries"):
        assert fast[name] == exact[name], (
            f"{name}: arena-fast={fast[name]} vs arena={exact[name]} "
            "(counts must match exactly)"
        )
    for name in BANDS:
        assert_band(name, fast[name], exact[name])


class TestImmeWithinBands:
    def test_paper_batch(self):
        exact = aggregates(run_small_metrics(BACKEND_ARENA, EnvKind.IMME))
        fast = aggregates(run_small_metrics(FAST, EnvKind.IMME))
        assert_imme_equivalent(fast, exact)

    def test_fault_injection(self):
        def schedule():
            return FaultSchedule(
                [
                    FaultSpec(FaultKind.TIER_OFFLINE, time=3.0, node=0, tier=PMEM,
                              duration=10.0),
                    FaultSpec(FaultKind.NODE_CRASH, time=6.0, node=1, duration=15.0),
                ]
            )

        exact = aggregates(
            run_small_metrics(BACKEND_ARENA, EnvKind.IMME, faults=schedule())
        )
        fast = aggregates(run_small_metrics(FAST, EnvKind.IMME, faults=schedule()))
        assert_imme_equivalent(fast, exact)


# --------------------------------------------------------------------------- #
# clause 2 at scenario level: every registered family
# --------------------------------------------------------------------------- #

_ensure_catalog()


def family_pick(name):
    """One member per family: prefer IMME (where the backends diverge),
    then TME, else the first member."""
    fam = REGISTRY.family(name)
    for kind in (EnvKind.IMME, EnvKind.TME):
        for spec in fam:
            if spec.env is kind:
                return spec
    return fam.scenarios[0]


def run_family_outcome(spec, backend):
    saved = os.environ.get("REPRO_CORE")
    os.environ["REPRO_CORE"] = backend
    try:
        return run_scenario(spec)
    finally:
        if saved is None:
            os.environ.pop("REPRO_CORE", None)
        else:
            os.environ["REPRO_CORE"] = saved


class TestEveryScenarioFamily:
    @pytest.mark.parametrize("name", REGISTRY.family_names())
    def test_family_within_bands(self, name):
        spec = family_pick(name)
        exact = run_family_outcome(spec, BACKEND_ARENA)
        fast = run_family_outcome(spec, FAST)
        assert fast.digest == exact.digest
        assert fast.seed == exact.seed
        assert (fast.completed, fast.failed) == (exact.completed, exact.failed)
        if spec.env is not EnvKind.IMME:
            # the fast paths are unreachable here: full outcome equality
            assert fast == exact
            return
        assert_band("makespan", fast.makespan, exact.makespan)
        assert_band("mean_startup", fast.mean_startup, exact.mean_startup)
        for metric in ("queue_wait", "startup_time", "execution_time"):
            assert_band(
                "latency_p95",
                fast.percentile(metric, 95),
                exact.percentile(metric, 95),
            )


# --------------------------------------------------------------------------- #
# clause 3: digests never move with the backend
# --------------------------------------------------------------------------- #


class TestDigestInvariance:
    def test_digests_identical_across_both_backends(self, monkeypatch):
        digests = []
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_CORE", backend)
            digests.append(
                [REGISTRY.family(n).digest() for n in REGISTRY.family_names()]
            )
        assert digests[0] == digests[1]
