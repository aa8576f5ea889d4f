"""Layer-attributed tracing for the benchmark's traced run.

The simulator itself carries no per-layer instrumentation, so the traced
run wraps each layer's public callables from the outside: a
:class:`Recorder` replaces a boundary (a module function or a class
method) with a wrapper that records one span per call and restores the
original on :meth:`Recorder.restore`.  Spans stay in memory as columns
(boundary id, start, end, parent) and are written out once, when the run
ends.  Counts are taken at the same boundaries by small probes that read
the call's arguments or the object's state around the call.

The analysis half turns a span list into the per-layer table: a span's
self time is its duration minus the time its direct children cover, a
layer's self time is the sum over its spans, and the part of the wall
window no root span covers is the remainder, so that layer self times
plus the remainder add up to the wall time exactly.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: (boundary name, layer, "module:qualname") for every wrapped callable.
#: The layer names are the simulator's package names.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("engine.step", "sim", "repro.sim.engine:SimulationEngine.step"),
    ("engine.schedule_at", "sim", "repro.sim.engine:SimulationEngine.schedule_at"),
    ("engine.cancel", "sim", "repro.sim.engine:SimulationEngine.cancel"),
    ("agent.recompute_rates", "runtime", "repro.runtime.node_agent:NodeAgent.recompute_rates"),
    ("rates.tier_access_profile", "runtime", "repro.runtime.rates:tier_access_profile"),
    ("rates.tier_demand", "runtime", "repro.runtime.rates:tier_demand"),
    ("rates.phase_slowdown", "runtime", "repro.runtime.rates:phase_slowdown"),
    ("task.update_rate", "runtime", "repro.runtime.execution:TaskExecution.update_rate"),
    ("contention.allocate_bandwidth", "memory", "repro.memory.contention:allocate_bandwidth"),
    ("memory.migrate", "memory", "repro.memory.system:NodeMemorySystem.migrate"),
    ("heatmap.advance_node", "core", "repro.core.heatmap:PageHeatmap.advance_node"),
    ("manager.tick", "core", "repro.core.manager:TieredMemoryManager.tick"),
    ("manager.place", "core", "repro.core.manager:TieredMemoryManager.place"),
    ("movement.tick", "core", "repro.core.movement:IntelligentPageMovement.tick"),
    ("replacement.replace", "core", "repro.core.replacement:PageReplacementPolicy.replace"),
    ("linux.tick", "policies", "repro.policies.linux:LinuxSwapPolicy.tick"),
    ("tpp.tick", "policies", "repro.policies.tpp:TieredDemandPolicy.tick"),
    ("scheduler.submit", "scheduler", "repro.scheduler.slurm:SlurmScheduler.submit"),
    ("scheduler.try_submit", "scheduler", "repro.scheduler.slurm:SlurmScheduler.try_submit"),
    ("stream.task", "service", "repro.service.stream:TaskStream.task"),
    ("window.assemble", "service", "repro.service.metrics:WindowAccumulator.assemble"),
    ("scenario.realize", "scenarios", "repro.scenarios.build:realize"),
    ("scenario.environment_for_tasks", "scenarios",
     "repro.scenarios.build:environment_for_tasks"),
    ("supervised_map", "resilience", "repro.resilience.supervisor:supervised_map"),
    ("cache.cell_keys", "cache", "repro.cache.keys:cell_keys"),
    ("cache.put", "cache", "repro.cache.store:ResultCache.put"),
    ("cache.get", "cache", "repro.cache.store:ResultCache.get"),
    ("obs.write_run_dir", "obs", "repro.obs.exporters:write_run_dir"),
    ("setup.paper_batch", "setup", "repro.workflows.ensembles:paper_batch"),
    ("setup.build_env", "setup", "repro.experiments.common:build_env"),
    ("setup.make_environment", "setup", "repro.envs.environments:make_environment"),
)

#: one sweep cell inside a worker; opened by the ``supervised_map`` wrapper
CELL = "resilience.cell"

LAYERS: Tuple[str, ...] = (
    "sim", "runtime", "memory", "core", "policies", "scheduler", "service",
    "scenarios", "resilience", "cache", "obs", "setup",
)

BOUNDARY_LAYER: Dict[str, str] = {name: layer for name, layer, _ in BOUNDARIES}
BOUNDARY_LAYER[CELL] = "resilience"


# --------------------------------------------------------------------------- #
# target resolution and patching
# --------------------------------------------------------------------------- #

def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"module:Class.attr"`` or ``"module:func"`` -> (owner, attr, original)."""
    modname, _, qual = target.partition(":")
    __import__(modname)
    owner: Any = sys.modules[modname]
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def replace_everywhere(self, owner: Any, attr: str, original: Any, value: Any) -> None:
        """Patch ``owner.attr`` and, for module functions, every loaded
        ``repro`` module that imported the same object by name."""
        self.set(owner, attr, value)
        if isinstance(owner, type):
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not name.startswith("repro"):
                continue
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    self.set(mod, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value, had = self._undo.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


# --------------------------------------------------------------------------- #
# the recorder
# --------------------------------------------------------------------------- #

class Recorder:
    """Columnar in-memory span store plus the wrappers that fill it.

    ``parents[i]`` is the index of span ``i``'s enclosing span in the same
    process, or -1 for a root span.  ``counters`` holds the counts taken
    by the probes.
    """

    def __init__(self, run_id: str, spill_dir: Optional[str] = None) -> None:
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: List[int] = [-1]
        self.counters: Dict[str, float] = {}
        self.map_jobs = 0
        self._patches = _Patches()
        self._pid = os.getpid()
        self._spills = 0

    # ------------------------------------------------------------------ #
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(
        self,
        fn: Callable,
        name: str,
        probe: Optional[Callable[..., Callable[[Any], None]]] = None,
    ) -> Callable:
        """``fn`` timed as one span per call.  ``probe(*args, **kw)`` runs
        before the span opens and returns a callback that receives the
        result after it closes, so counting stays outside the timing."""
        bid = self._id(name)
        ids, starts, ends, parents, stack = (
            self.ids, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            done = probe(*args, **kwargs) if probe is not None else None
            idx = len(ids)
            ids.append(bid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if done is not None:
                done(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every boundary (and the counting probes) in place."""
        probes = _probes(self)
        for name, _layer, target in BOUNDARIES:
            owner, attr, original = resolve(target)
            if name == "supervised_map":
                wrapper = self.wrap(self._map_hook(original), name)
            else:
                wrapper = self.wrap(original, name, probes.get(name))
            self._patches.replace_everywhere(owner, attr, original, wrapper)
        owner, attr, original = resolve("repro.memory.system:MemoryTrafficStats.record_migration")

        def record_migration(stats, src, dst, nbytes):
            self.count("memory.migrated_bytes", int(nbytes))
            return original(stats, src, dst, nbytes)

        self._patches.set(owner, attr, record_migration)

    def restore(self) -> None:
        self._patches.restore()

    # ------------------------------------------------------------------ #
    # sweep cells in forked workers
    # ------------------------------------------------------------------ #
    def _map_hook(self, supervised_map: Callable) -> Callable:
        recorder = self

        def hooked(fn, items, *args, **kwargs):
            from repro.parallel import executor

            items = list(items)
            recorder.map_jobs = max(1, min(executor.resolve_jobs(kwargs.get("jobs")), len(items)))
            return supervised_map(recorder._cell(fn), items, *args, **kwargs)

        return hooked

    def _cell(self, fn: Callable) -> Callable:
        cell = self.wrap(fn, CELL)
        recorder = self

        def run_cell(item):
            in_worker = os.getpid() != recorder._pid
            if in_worker and len(recorder._stack) > 1:
                # first cell in a freshly forked worker: drop what the
                # parent had recorded before the fork
                recorder._reset()
            try:
                return cell(item)
            finally:
                if in_worker:
                    recorder.spill()

        return run_cell

    def _reset(self) -> None:
        del self.ids[:], self.starts[:], self.ends[:], self.parents[:]
        self._stack[:] = [-1]
        self.counters.clear()

    def spill(self) -> None:
        """Write this worker's spans to the spill directory and clear them."""
        if self.spill_dir is None:
            return
        self._spills += 1
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}-{self._spills}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self.to_dict(f"{self.run_id}/worker-{os.getpid()}"), fh)
        os.replace(path + ".tmp", path)
        self._reset()

    # ------------------------------------------------------------------ #
    def to_dict(self, run_id: Optional[str] = None) -> Dict[str, Any]:
        return {
            "run_id": run_id or self.run_id,
            "pid": os.getpid(),
            "names": list(self.names),
            "ids": self.ids.tolist(),
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "parents": self.parents.tolist(),
            "counters": dict(self.counters),
        }


def _probes(rec: Recorder) -> Dict[str, Callable[..., Callable[[Any], None]]]:
    """Counting probes, keyed by boundary name."""

    from repro.runtime.execution import TaskState

    def running_tasks(agent):
        n = sum(1 for te in agent.running.values() if te.state is TaskState.RUNNING)
        rec.count("runtime.task_recomputes", n)
        return None

    def rate_update(te, rate):
        before = te.current_rate

        def done(_result):
            rec.count("runtime.rate_changed", te.current_rate != before)

        return done

    def cancel(engine, event):
        if event is not None and not event.cancelled and not event.fired:
            rec.count("sim.cancelled")
        return None

    def step(engine):
        def done(fired):
            rec.count("sim.events", bool(fired))

        return done

    def policy_tick(policy, ctx):
        before = ctx.memory.stats.total_migrated_bytes

        def done(_result):
            rec.count("core.useful_ticks", ctx.memory.stats.total_migrated_bytes != before)

        return done

    def try_submit(sched, *args, **kwargs):
        def done(job):
            rec.count("scheduler.admitted", job is not None)

        return done

    def cache_get(cache, key):
        def done(result):
            rec.count("cache.gets")
            rec.count("cache.hits", bool(result[0]))

        return done

    return {
        "agent.recompute_rates": running_tasks,
        "task.update_rate": rate_update,
        "engine.cancel": cancel,
        "engine.step": step,
        "manager.tick": policy_tick,
        "scheduler.try_submit": try_submit,
        "cache.get": cache_get,
    }


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #

class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    run_id: str

    @property
    def dur(self) -> int:
        return self.end - self.start


def spans_from_dict(doc: Dict[str, Any]) -> List[Span]:
    names = doc["names"]
    return [
        Span(names[b], s, e, p, doc["run_id"])
        for b, s, e, p in zip(doc["ids"], doc["starts"], doc["ends"], doc["parents"])
    ]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.dur
    return out


def outermost(spans: Sequence[Span], key: Callable[[str], str] = lambda name: name) -> List[bool]:
    """Whether each span has no ancestor with the same ``key`` (boundary
    name by default), so an inclusive total never counts nesting twice."""
    flags = []
    for s in spans:
        k = key(s.name)
        p = s.parent
        while p >= 0 and key(spans[p].name) != k:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    k = (len(sorted_vals) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


@dataclass
class BoundaryStats:
    name: str
    layer: str
    n: int
    total_s: float
    self_s: float
    p50_us: float
    p99_us: float


Groups = Sequence[Sequence[Span]]


def boundary_stats(groups: Groups) -> Dict[str, BoundaryStats]:
    """Per-boundary sample count, inclusive total, self total and p50/p99,
    over span lists from one or more processes."""
    durs: Dict[str, List[int]] = {}
    totals: Dict[str, int] = {}
    self_tot: Dict[str, int] = {}
    for spans in groups:
        for s, st, top in zip(spans, self_times(spans), outermost(spans)):
            durs.setdefault(s.name, []).append(s.dur)
            self_tot[s.name] = self_tot.get(s.name, 0) + st
            if top:
                totals[s.name] = totals.get(s.name, 0) + s.dur
    out = {}
    for name, ds in durs.items():
        ds.sort()
        out[name] = BoundaryStats(
            name=name,
            layer=BOUNDARY_LAYER.get(name, "other"),
            n=len(ds),
            total_s=totals.get(name, 0) / 1e9,
            self_s=self_tot[name] / 1e9,
            p50_us=_percentile(ds, 0.50) / 1e3,
            p99_us=_percentile(ds, 0.99) / 1e3,
        )
    return out


def layer_self(groups: Groups) -> Dict[str, float]:
    """Self seconds per layer (every layer present, zero when unused)."""
    out = {layer: 0.0 for layer in LAYERS}
    for spans in groups:
        for s, st in zip(spans, self_times(spans)):
            layer = BOUNDARY_LAYER.get(s.name, "other")
            out[layer] = out.get(layer, 0.0) + st / 1e9
    return out


def layer_inclusive(
    groups: Groups, layer: str, names: Optional[Iterable[str]] = None
) -> Tuple[float, int]:
    """Seconds inside ``layer`` (only its boundaries in ``names``, when
    given) counting nested spans of the same layer once, and the number of
    outermost spans."""
    key = lambda name: BOUNDARY_LAYER.get(name, "other")  # noqa: E731
    wanted = set(names) if names is not None else None
    total, n = 0, 0
    for spans in groups:
        for s, top in zip(spans, outermost(spans, key)):
            if top and key(s.name) == layer and (wanted is None or s.name in wanted):
                total += s.dur
                n += 1
    return total / 1e9, n


def in_window(spans: Sequence[Span], t0: int, t1: int) -> List[Span]:
    """The spans of one process that lie inside ``[t0, t1]``, re-indexed
    so parents stay valid (a parent outside the window becomes a root)."""
    keep = [i for i, s in enumerate(spans) if s.start >= t0 and s.end <= t1]
    new_index = {old: new for new, old in enumerate(keep)}
    return [
        Span(spans[i].name, spans[i].start, spans[i].end,
             new_index.get(spans[i].parent, -1), spans[i].run_id)
        for i in keep
    ]


def remainder_ns(spans: Sequence[Span], t0: int, t1: int) -> int:
    """Wall time in ``[t0, t1]`` that no root span covers."""
    covered = sum(s.dur for s in spans if s.parent < 0)
    return (t1 - t0) - covered


# --------------------------------------------------------------------------- #
# the per-layer metrics
# --------------------------------------------------------------------------- #

#: (metric, unit, better) for every per-layer metric a traced run reports
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.cancelled_frac", "fraction", "lower"),
    ("sim.step_self_s", "s", "lower"),
    ("runtime.recompute_calls", "count", "lower"),
    ("runtime.recompute_s", "s", "lower"),
    ("runtime.recompute_p50_us", "us", "lower"),
    ("runtime.recompute_p99_us", "us", "lower"),
    ("runtime.profile_calls_per_task", "ratio", "lower"),
    ("runtime.profile_s", "s", "lower"),
    ("runtime.slowdown_s", "s", "lower"),
    ("runtime.rate_updates", "count", "lower"),
    ("runtime.rate_changed_frac", "fraction", "higher"),
    ("memory.contention_s", "s", "lower"),
    ("memory.migrate_calls", "count", "lower"),
    ("memory.migrated_mb", "MB", "lower"),
    ("core.heatmap_s", "s", "lower"),
    ("core.policy_tick_s", "s", "lower"),
    ("core.movement_tick_s", "s", "lower"),
    ("core.replace_calls", "count", "lower"),
    ("core.replace_s", "s", "lower"),
    ("core.place_s", "s", "lower"),
    ("core.tick_useful_frac", "fraction", "higher"),
    ("policies.linux_tick_s", "s", "lower"),
    ("policies.tpp_tick_s", "s", "lower"),
    ("scheduler.submit_calls", "count", "lower"),
    ("scheduler.submit_s", "s", "lower"),
    ("service.build_calls", "count", "lower"),
    ("service.build_s", "s", "lower"),
    ("service.builds_per_admitted", "ratio", "lower"),
    ("service.assemble_s", "s", "lower"),
    ("scenarios.realize_s", "s", "lower"),
    ("resilience.map_s", "s", "lower"),
    ("resilience.cell_busy_s", "s", "lower"),
    ("resilience.overhead_s_per_cell", "s/cell", "lower"),
    ("resilience.retries", "count", "lower"),
    ("cache.key_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.hit_frac", "fraction", "higher"),
    ("cache.written_mb", "MB", "lower"),
    ("obs.export_s", "s", "lower"),
    ("obs.run_dir_mb", "MB", "lower"),
    ("obs.ledger_entries", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.workload_s", "s", "lower"),
    ("setup.env_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.remainder_frac", "fraction", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    parent: Sequence[Span],
    workers: Groups,
    counters: Dict[str, float],
    t0: int,
    t1: int,
    extra: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics of one traced run, with the sample count behind
    each.  ``parent`` holds the driving process's spans, ``[t0, t1]`` its
    wall window; ``workers`` holds the spans of forked sweep workers;
    ``extra`` supplies what is measured outside spans (import time, the
    sizes of the cache and run directories, ledger entries, map jobs and
    sweep items).  Trace-level figures that need the untraced run are
    filled in by the caller."""
    window = in_window(parent, t0, t1)
    setup = in_window(parent, parent[0].start if parent else t0, t0)
    groups = [window, *workers]
    b = boundary_stats(groups)
    pre = boundary_stats([setup])

    def n(name: str) -> int:
        return b[name].n if name in b else 0

    def tot(name: str) -> float:
        return b[name].total_s if name in b else 0.0

    values: Dict[str, float] = {}
    counts: Dict[str, int] = {}

    def put(metric: str, value: float, samples: int) -> None:
        values[metric] = float(value)
        counts[metric] = int(samples)

    put("sim.events", counters.get("sim.events", 0), n("engine.step"))
    put("sim.cancelled_frac",
        _ratio(counters.get("sim.cancelled", 0), n("engine.schedule_at")), n("engine.cancel"))
    put("sim.step_self_s", b["engine.step"].self_s if "engine.step" in b else 0.0,
        n("engine.step"))
    rec = b.get("agent.recompute_rates")
    put("runtime.recompute_calls", n("agent.recompute_rates"), n("agent.recompute_rates"))
    put("runtime.recompute_s", tot("agent.recompute_rates"), n("agent.recompute_rates"))
    put("runtime.recompute_p50_us", rec.p50_us if rec else 0.0, n("agent.recompute_rates"))
    put("runtime.recompute_p99_us", rec.p99_us if rec else 0.0, n("agent.recompute_rates"))
    put("runtime.profile_calls_per_task",
        _ratio(n("rates.tier_access_profile"), counters.get("runtime.task_recomputes", 0)),
        n("rates.tier_access_profile"))
    put("runtime.profile_s", tot("rates.tier_access_profile"), n("rates.tier_access_profile"))
    put("runtime.slowdown_s", tot("rates.phase_slowdown"), n("rates.phase_slowdown"))
    put("runtime.rate_updates", n("task.update_rate"), n("task.update_rate"))
    put("runtime.rate_changed_frac",
        _ratio(counters.get("runtime.rate_changed", 0), n("task.update_rate")),
        n("task.update_rate"))
    put("memory.contention_s", tot("contention.allocate_bandwidth"),
        n("contention.allocate_bandwidth"))
    put("memory.migrate_calls", n("memory.migrate"), n("memory.migrate"))
    put("memory.migrated_mb", counters.get("memory.migrated_bytes", 0) / 2**20,
        n("memory.migrate"))
    put("core.heatmap_s", tot("heatmap.advance_node"), n("heatmap.advance_node"))
    put("core.policy_tick_s", tot("manager.tick"), n("manager.tick"))
    put("core.movement_tick_s", tot("movement.tick"), n("movement.tick"))
    put("core.replace_calls", n("replacement.replace"), n("replacement.replace"))
    put("core.replace_s", tot("replacement.replace"), n("replacement.replace"))
    put("core.place_s", tot("manager.place"), n("manager.place"))
    put("core.tick_useful_frac",
        _ratio(counters.get("core.useful_ticks", 0), n("manager.tick")),
        n("manager.tick"))
    put("policies.linux_tick_s", tot("linux.tick"), n("linux.tick"))
    put("policies.tpp_tick_s", tot("tpp.tick"), n("tpp.tick"))
    put("scheduler.submit_calls", n("scheduler.submit"), n("scheduler.submit"))
    sched_s, sched_n = layer_inclusive(groups, "scheduler")
    put("scheduler.submit_s", sched_s, sched_n)
    put("service.build_calls", n("stream.task"), n("stream.task"))
    put("service.build_s", tot("stream.task"), n("stream.task"))
    put("service.builds_per_admitted",
        _ratio(n("stream.task"), counters.get("scheduler.admitted", 0)), n("stream.task"))
    put("service.assemble_s", tot("window.assemble"), n("window.assemble"))
    realize_s, realize_n = layer_inclusive(groups, "scenarios")
    put("scenarios.realize_s", realize_s, realize_n)
    cells = int(extra.get("map_items", 0))
    jobs = int(extra.get("map_jobs", 0))
    busy = tot(CELL)
    put("resilience.map_s", tot("supervised_map"), n("supervised_map"))
    put("resilience.cell_busy_s", busy, n(CELL))
    put("resilience.overhead_s_per_cell",
        _ratio(tot("supervised_map") * jobs - busy, cells), n(CELL))
    put("resilience.retries", max(0, n(CELL) - cells), n(CELL))
    put("cache.key_s", tot("cache.cell_keys"), n("cache.cell_keys"))
    put("cache.put_s", tot("cache.put"), n("cache.put"))
    put("cache.get_s", tot("cache.get"), n("cache.get"))
    put("cache.hit_frac", _ratio(counters.get("cache.hits", 0), counters.get("cache.gets", 0)),
        n("cache.get"))
    put("cache.written_mb", extra.get("cache_mb", 0.0), n("cache.put"))
    put("obs.export_s", tot("obs.write_run_dir"), n("obs.write_run_dir"))
    put("obs.run_dir_mb", extra.get("run_dir_mb", 0.0), n("obs.write_run_dir"))
    put("obs.ledger_entries", extra.get("ledger_entries", 0), n("obs.write_run_dir"))
    put("setup.import_s", extra.get("import_s", 0.0), 1)
    put("setup.workload_s",
        pre["setup.paper_batch"].total_s if "setup.paper_batch" in pre else 0.0,
        pre["setup.paper_batch"].n if "setup.paper_batch" in pre else 0)
    env_s, env_n = layer_inclusive(
        [setup], "setup", ("setup.build_env", "setup.make_environment"))
    put("setup.env_s", env_s, env_n)
    for layer, secs in layer_self(groups).items():
        if layer in LAYERS:
            put(f"{layer}.self_s", secs, sum(
                st.n for st in b.values() if st.layer == layer))
    rem = remainder_ns(window, t0, t1)
    wall = (t1 - t0) / 1e9
    put("trace.wall_s", wall, 1)
    put("trace.remainder_s", rem / 1e9, 1)
    put("trace.remainder_frac", _ratio(rem / 1e9, wall), 1)
    put("trace.spans", len(parent) + sum(len(w) for w in workers), 1)
    return values, counts


def format_table(values: Dict[str, float], counts: Dict[str, int],
                 stats: Dict[str, BoundaryStats]) -> List[str]:
    """Human-readable layer table: the named metrics with their sample
    counts, then every boundary's count, totals and p50/p99."""
    lines = [f"{'metric':<36} {'value':>14} {'unit':<9} {'n':>9}"]
    for name, unit, _ in PER_LAYER:
        if name in values:
            lines.append(f"{name:<36} {values[name]:>14.6g} {unit:<9} {counts.get(name, 0):>9}")
    lines.append("")
    lines.append(f"{'boundary':<32} {'layer':<10} {'n':>8} {'total_s':>10} "
                 f"{'self_s':>10} {'p50_us':>10} {'p99_us':>10}")
    for st in sorted(stats.values(), key=lambda x: -x.total_s):
        lines.append(f"{st.name:<32} {st.layer:<10} {st.n:>8} {st.total_s:>10.4f} "
                     f"{st.self_s:>10.4f} {st.p50_us:>10.2f} {st.p99_us:>10.2f}")
    return lines
