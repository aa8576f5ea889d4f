"""The benchmark's three workloads, each a single job run to completion.

Every workload has the same shape: ``setup(seed, scratch)`` builds the
inputs and the environment (host time before the first event),
``run(state)`` drives the simulator to its result, ``outputs(state,
result)`` condenses the simulated outputs into plain JSON values, and
``check(outputs, seed, expected)`` lists what is wrong with them.
``ops(outputs)`` counts the work done (attempted and failed operations
plus the tasks, arrivals and sweep cells behind the throughput metrics).

All simulator calls go through module attributes (``common.build_env``,
not ``from ... import build_env``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from typing import Any, Dict, List, Optional

PAPER_INSTANCES = 200
SERVICE_ARRIVALS = 10_000
SWEEP_JOBS = 2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def compare(outputs: Dict[str, Any], expected: Optional[Dict[str, Any]]) -> List[str]:
    """Exact comparison of recorded outputs against the simulated ones."""
    if expected is None:
        return []
    problems = []
    for key, want in expected.items():
        got = outputs.get(key)
        if got != want:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


class Workload:
    name = ""
    default_seed = 0
    #: operations a failed run counts when it never produced outputs
    nominal_ops = 1

    def setup(self, seed: int, scratch: str) -> Dict[str, Any]:
        raise NotImplementedError

    def run(self, state: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def outputs(self, state: Dict[str, Any], result: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def structural(self, outputs: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def ops(self, outputs: Dict[str, Any]) -> Dict[str, int]:
        raise NotImplementedError

    def check(
        self, outputs: Dict[str, Any], seed: int, expected: Optional[Dict[str, Any]]
    ) -> List[str]:
        """Structural checks on every seed, plus exact equality with the
        recorded outputs when ``seed`` is the seed they were recorded for."""
        problems = self.structural(outputs)
        if expected is not None and seed == expected.get("seed"):
            problems += compare(outputs, expected.get("outputs"))
        return problems


class PaperBatch(Workload):
    """``paper_batch(200, scale=1/64)`` on IMME, 8 nodes, DRAM at 30% of
    the footprint, every task submitted at t=0."""

    name = "paper-batch"
    default_seed = 0

    def __init__(self, instances: int = PAPER_INSTANCES) -> None:
        self.instances = instances
        self.nominal_ops = instances

    def setup(self, seed, scratch):
        from repro.envs.environments import EnvKind
        from repro.experiments import common
        from repro.util.rng import RngFactory
        from repro.workflows import ensembles

        specs = ensembles.paper_batch(
            self.instances, scale=1 / 64, rng_factory=RngFactory(seed)
        )
        env = common.build_env(EnvKind.IMME, specs, dram_fraction=0.30, n_nodes=8)
        return {"specs": specs, "env": env}

    def run(self, state):
        from repro.experiments import common

        return common.run_and_collect(state["env"], state["specs"])

    def outputs(self, state, metrics):
        from repro.experiments import common

        env = state["env"]
        return {
            "tasks": len(state["specs"]),
            "completed": len(metrics.completed()),
            "failed": len(metrics.failed()),
            "makespan": float(metrics.makespan()),
            "events_fired": int(env.engine.events_fired),
            "class_exec": {
                cls.name: t for cls, t in common.per_class_exec_time(metrics).items()
            },
            "migrated_bytes": int(
                sum(agent.memory.stats.total_migrated_bytes for agent in env.agents)
            ),
        }

    def structural(self, out):
        problems = []
        if out["completed"] != out["tasks"]:
            problems.append(f"{out['completed']} of {out['tasks']} tasks completed")
        if out["failed"]:
            problems.append(f"{out['failed']} tasks failed")
        return problems

    def ops(self, out):
        return {
            "attempted": out["tasks"],
            "failed": out["tasks"] - out["completed"] + out["failed"],
            "tasks": out["completed"],
            "arrivals": out["tasks"],
            "cells": 1,
        }


class ServiceShed(Workload):
    """The validated 10k-arrival queue-cap service recipe on IMME with 2
    nodes, 2 GiB DRAM, 16 MiB chunks and scale 1/2048."""

    name = "service-shed"
    default_seed = 5
    nominal_ops = SERVICE_ARRIVALS

    def setup(self, seed, scratch):
        from repro.envs import environments
        from repro.service import ServiceSpec
        from repro.util.units import GiB, MiB

        spec = ServiceSpec(
            rate=50.0,
            max_arrivals=SERVICE_ARRIVALS,
            window=20.0,
            admission="queue-cap",
            queue_cap=32,
            classes=(("DM", 3), ("DC", 1)),
        )
        env = environments.make_environment(
            environments.EnvKind.IMME, n_nodes=2, dram_capacity=GiB(2), chunk_size=MiB(16)
        )
        return {"spec": spec, "env": env, "seed": seed}

    def run(self, state):
        from repro.service import run as service_run

        env = state["env"]
        try:
            return service_run.serve(env, state["spec"], scale=1 / 2048, seed=state["seed"])
        finally:
            env.stop()

    def outputs(self, state, report):
        try:
            dm_p95 = float(report.latency("DM").p95)
        except KeyError:
            dm_p95 = None
        return {
            "offered": int(report.offered),
            "admitted": int(report.admitted),
            "completed": int(report.completed),
            "failed": int(report.failed),
            "converged": bool(report.converged),
            "windows": len(report.windows),
            "dm_p95": dm_p95,
        }

    def structural(self, out):
        problems = []
        if out["offered"] != SERVICE_ARRIVALS:
            problems.append(f"offered {out['offered']}, expected {SERVICE_ARRIVALS}")
        if out["admitted"] < 1 or out["completed"] != out["admitted"]:
            problems.append(f"admitted {out['admitted']} but completed {out['completed']}")
        if not out["converged"]:
            problems.append("service run did not converge")
        return problems

    def ops(self, out):
        return {
            "attempted": out["admitted"],
            "failed": max(0, out["admitted"] - out["completed"]) + out["failed"],
            "tasks": out["completed"],
            "arrivals": out["offered"],
            "cells": 1,
        }


class FigureSweep(Workload):
    """``python -m repro scenarios run fig08 --jobs 2`` with a fresh cache
    and telemetry directory.  Seed 0 runs the registered family; another
    seed runs the same grid rebuilt with that seed under its own name."""

    name = "figure-sweep"
    default_seed = 0
    nominal_ops = 48

    def setup(self, seed, scratch):
        import dataclasses

        from repro.scenarios import paper, registry

        ref = "fig08"
        if seed != 0:
            ref = f"fig08-seed{seed}"
            fam = paper.fig08_family(seed=seed)
            members = tuple(
                dataclasses.replace(s, name=f"{ref}/{s.member}") for s in fam.scenarios
            )
            registry.REGISTRY.register(
                dataclasses.replace(fam, name=ref, scenarios=members)
            )
        cache_dir = os.path.join(scratch, "cache")
        tel_dir = os.path.join(scratch, "telemetry")
        jobs = min(SWEEP_JOBS, _usable_cpus())
        argv = ["run", ref, "--jobs", str(jobs), "--cache-dir", cache_dir,
                "--telemetry", tel_dir]
        return {"argv": argv, "cache_dir": cache_dir, "tel_dir": tel_dir}

    def run(self, state):
        """Run the CLI in-process.  A pass-through hook on
        ``supervised_map`` stamps the first cell dispatch (the end of
        set-up) and keeps the per-cell outcomes for the output check."""
        from repro import resilience
        from repro.resilience import supervisor
        from repro.scenarios import cli

        original = supervisor.supervised_map

        def dispatch(fn, items, *args, **kwargs):
            state.setdefault("t_first", time.perf_counter_ns())
            result = original(fn, items, *args, **kwargs)
            state["sup"] = result
            return result

        supervisor.supervised_map = resilience.supervised_map = dispatch
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(state["argv"])
        finally:
            supervisor.supervised_map = resilience.supervised_map = original

    def outputs(self, state, rc):
        from repro.obs import exporters

        sup = state.get("sup")
        cells = []
        quarantined = 0
        if sup is not None:
            quarantined = len(sup.failures)
            for out in sup.results:
                if out is not None:
                    cells.append([out.scenario, out.digest, float(out.makespan),
                                  int(out.completed), int(out.failed)])
        trace_path = os.path.join(state["tel_dir"], "trace.json")
        try:
            with open(trace_path) as fh:
                trace_problems = len(exporters.validate_chrome_trace(json.load(fh)))
        except (OSError, ValueError):
            trace_problems = -1
        return {
            "rc": int(rc),
            "quarantined": quarantined,
            "trace_problems": trace_problems,
            "cells": cells,
        }

    def structural(self, out):
        problems = []
        if out["rc"] != 0:
            problems.append(f"exit code {out['rc']}")
        if out["quarantined"]:
            problems.append(f"{out['quarantined']} cells quarantined")
        if out["trace_problems"]:
            problems.append(f"run directory trace invalid ({out['trace_problems']} problems)")
        if len(out["cells"]) + out["quarantined"] != self.nominal_ops:
            problems.append(f"{len(out['cells'])} cell outcomes, expected {self.nominal_ops}")
        for cell in out["cells"]:
            if cell[4]:
                problems.append(f"{cell[0]}: {cell[4]} tasks failed")
        return problems

    def ops(self, out):
        return {
            "attempted": self.nominal_ops,
            "failed": self.nominal_ops - len(out["cells"]),
            "tasks": sum(c[3] for c in out["cells"]),
            "arrivals": sum(c[3] + c[4] for c in out["cells"]),
            "cells": len(out["cells"]),
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperBatch(), ServiceShed(), FigureSweep())
}
