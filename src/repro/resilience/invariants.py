"""Runtime invariant checker — conservation laws the simulator must hold.

The simulator's correctness rests on a handful of conservation
properties that faults (node crashes, tier evacuations, OOM kills) must
never break:

* **bytes are conserved** — a migration or evacuation moves chunks
  between tiers; it never creates or destroys accounted bytes,
* **no task is lost** — every submitted job is queued, starting,
  running, awaiting a requeue, or terminal; the scheduler's queue holds
  only pending jobs and holds each at most once,
* **the event heap is consistent** — the engine's O(1) live counter
  always matches a recount of the heap,
* **placement caches are coherent** — a summary memoised under a
  pageset's placement version (access profile, per-tier chunk counts)
  equals a fresh recomputation exactly.

Checks are wired through the same null-object dispatch trick as
:mod:`repro.obs`: every call site asks the *active* checker, which is a
shared no-op :data:`NULL_CHECKER` unless a run enables checking
(``run_all --check-invariants``, ``scenarios run --check-invariants``,
or :func:`session` in tests).  Disabled cost is one attribute load plus
one no-op call — measured alongside the telemetry budget in
``benchmarks/bench_resilience.py``.

This module is deliberately import-light (stdlib + the error hierarchy
only) and duck-typed over the objects it inspects, so any layer of the
stack can call it without import cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List

from ..util.errors import ReproError

__all__ = [
    "NULL_CHECKER",
    "InvariantChecker",
    "InvariantViolation",
    "NullInvariantChecker",
    "active",
    "enabled",
    "install",
    "session",
]


class InvariantViolation(ReproError):
    """A conservation property the simulator must hold was broken."""


class NullInvariantChecker:
    """Checker that checks nothing — the default active instance.

    Every method is a no-op; call sites guard heavyweight precomputation
    behind ``checker.enabled`` exactly as emission points do for
    :mod:`repro.obs`.
    """

    enabled = False

    def memory(self, mem: Any) -> None:
        pass

    def conservation(
        self, where: str, before: int, after: int, *, op: str, delta: int = 0
    ) -> None:
        pass

    def engine(self, engine: Any) -> None:
        pass

    def scheduler(self, sched: Any) -> None:
        pass

    def metrics(self, metrics: Any) -> None:
        pass

    def cached_summary(self, owner: str, what: str, cached: Any, fresh: Any) -> None:
        pass


NULL_CHECKER = NullInvariantChecker()


class InvariantChecker(NullInvariantChecker):
    """The live checker: asserts, records, and (by default) raises.

    ``strict=False`` collects violations in :attr:`violations` instead of
    raising — what the chaos harness uses to keep a run alive while still
    counting every broken invariant.
    """

    enabled = True

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[str] = []
        self.checks = 0
        #: how many of :attr:`checks` compared a memoised placement summary
        self.cache_checks = 0

    # ------------------------------------------------------------------ #
    def _fail(self, message: str) -> None:
        self.violations.append(message)
        from .. import obs

        obs.counter("invariants.violations")
        if self.strict:
            raise InvariantViolation(message)

    # ------------------------------------------------------------------ #
    # memory conservation
    # ------------------------------------------------------------------ #
    def memory(self, mem: Any) -> None:
        """Full accounting validation of one :class:`NodeMemorySystem`
        (per-tier used bytes match the pagesets, caches consistent)."""
        self.checks += 1
        try:
            mem.validate()
        except Exception as exc:
            self._fail(f"memory accounting on {mem.node_id}: {exc}")

    def conservation(
        self, where: str, before: int, after: int, *, op: str, delta: int = 0
    ) -> None:
        """Assert an operation changed total accounted bytes by exactly
        ``delta`` (0 for migrations/evacuations, +n for placements)."""
        self.checks += 1
        if after != before + delta:
            self._fail(
                f"bytes not conserved across {op} on {where}: "
                f"{before} -> {after} (expected {before + delta})"
            )

    # ------------------------------------------------------------------ #
    # engine heap consistency
    # ------------------------------------------------------------------ #
    def engine(self, engine: Any) -> None:
        """The O(1) live-event counter must match a recount of the heap."""
        self.checks += 1
        recount = sum(
            1 for ev in engine._heap if not ev.cancelled and not ev.fired
        )
        live = engine.pending()
        if recount != live:
            self._fail(
                f"event-heap drift: live counter says {live}, "
                f"heap recount says {recount}"
            )

    # ------------------------------------------------------------------ #
    # task accounting
    # ------------------------------------------------------------------ #
    def scheduler(self, sched: Any) -> None:
        """No task lost between queue / starting / running / terminal."""
        self.checks += 1
        from ..scheduler.job import JobState

        seen: set[int] = set()
        for job in sched.queue:
            if job.job_id in seen:
                self._fail(f"job {job.name} queued twice")
            seen.add(job.job_id)
            if job.state is not JobState.PENDING:
                self._fail(
                    f"queued job {job.name} is {job.state.name}, not PENDING"
                )
        reserved = [0] * len(sched.agents)
        for job in sched.jobs.values():
            if job._reserved:
                if job.node_index is None:
                    self._fail(f"job {job.name} holds cores on no node")
                else:
                    reserved[job.node_index] += job._reserved
            if job.state is JobState.RUNNING and job.node_index is None:
                self._fail(f"running job {job.name} is placed on no node")
        for i, agent in enumerate(sched.agents):
            if reserved[i] != sched._reserved_cores[i]:
                self._fail(
                    f"node {i}: reserved-core drift "
                    f"({sched._reserved_cores[i]} tracked, {reserved[i]} held)"
                )
            if not 0 <= agent.cores_used <= agent.cores:
                self._fail(
                    f"node {i}: cores_used {agent.cores_used} outside "
                    f"[0, {agent.cores}]"
                )
        self.metrics(sched.metrics)

    def metrics(self, metrics: Any) -> None:
        """Terminal states are exclusive and timestamped consistently."""
        self.checks += 1
        for tm in metrics.tasks():
            if tm.failed and tm.finished_at is None:
                self._fail(f"failed task {tm.owner} has no finish time")
            if tm.failed and not tm.failure_reason:
                self._fail(f"failed task {tm.owner} carries no failure reason")

    # ------------------------------------------------------------------ #
    # placement-cache coherence
    # ------------------------------------------------------------------ #
    def cached_summary(self, owner: str, what: str, cached: Any, fresh: Any) -> None:
        """A summary memoised under ``owner``'s placement version must equal
        ``fresh``, its recomputation from the live arrays, exactly.  A
        mismatch means some writer of ``tier`` / ``access_weight`` /
        ``in_page_cache`` skipped the version bump."""
        self.checks += 1
        self.cache_checks += 1
        if cached != fresh:
            self._fail(f"stale {what} for {owner}: cached {cached}, fresh {fresh}")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<InvariantChecker strict={self.strict} checks={self.checks} "
            f"violations={len(self.violations)}>"
        )


# --------------------------------------------------------------------------- #
# module-level dispatch (what the stack's check sites call)
# --------------------------------------------------------------------------- #

_active: NullInvariantChecker = NULL_CHECKER


def active() -> NullInvariantChecker:
    """The checker every call site currently dispatches to."""
    return _active


def enabled() -> bool:
    return _active.enabled


def install(checker: NullInvariantChecker) -> NullInvariantChecker:
    """Install ``checker`` as the active one; returns the previous.

    Installed *before* a fork pool spawns, the checker is inherited by
    every worker — which is how ``--check-invariants`` reaches forked
    sweep cells.
    """
    global _active
    previous = _active
    _active = checker
    return previous


@contextmanager
def session(checker: NullInvariantChecker) -> Iterator[NullInvariantChecker]:
    """Scope ``checker`` as active for the ``with`` body."""
    previous = install(checker)
    try:
        yield checker
    finally:
        install(previous)
