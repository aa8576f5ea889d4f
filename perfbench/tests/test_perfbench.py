"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They use a small paper-batch (24 tasks) so they finish in seconds.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import sample  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _small_batch(tmp_path, recorder=None):
    wl = workloads.PaperBatch(instances=24)
    if recorder is not None:
        recorder.install()
    try:
        state = wl.setup(0, str(tmp_path))
        outputs = wl.outputs(state, wl.run(state))
    finally:
        if recorder is not None:
            recorder.restore()
    return wl, outputs


# --------------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------------- #

def _bindings():
    """Every place a boundary is reachable from: its owner plus every
    ``repro`` module that imported a module function by name."""
    found = {}
    for name, _layer, target in tracing.BOUNDARIES:
        owner, attr, original = tracing.resolve(target)
        found[(id(owner), attr)] = (owner, attr, original)
        if isinstance(owner, type):
            continue
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    found[(id(mod), key)] = (mod, key, original)
    return list(found.values())


def test_wrappers_restore_original_callables():
    import repro.runtime.node_agent as node_agent
    import repro.runtime.rates as rates
    from repro.memory.system import MemoryTrafficStats
    from repro.sim.engine import SimulationEngine

    before = _bindings()
    step = SimulationEngine.__dict__["step"]
    record_migration = MemoryTrafficStats.__dict__["record_migration"]
    rec = tracing.Recorder("test")
    rec.install()
    try:
        assert SimulationEngine.__dict__["step"] is not step
        # a function imported by name elsewhere is wrapped there too
        assert node_agent.phase_slowdown is rates.phase_slowdown
        assert node_agent.phase_slowdown.__wrapped__ is not None
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        rec.restore()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
    assert SimulationEngine.__dict__["step"] is step
    assert MemoryTrafficStats.__dict__["record_migration"] is record_migration


def test_traced_outputs_equal_untraced(tmp_path):
    _, plain = _small_batch(tmp_path)
    rec = tracing.Recorder("test")
    _, traced = _small_batch(tmp_path, rec)
    assert traced == plain
    assert len(rec.ids) > 0
    names = set(rec.names)
    assert {"engine.step", "agent.recompute_rates", "rates.tier_access_profile",
            "setup.paper_batch", "setup.build_env"} <= names


# --------------------------------------------------------------------------- #
# self-time arithmetic
# --------------------------------------------------------------------------- #

def _tree():
    """engine.step [0,100] -> recompute [10,60] -> profile [20,30], profile [35,45]
                           -> cancel [70,75]
    engine.step [110,150] (no children); window [0,200]."""
    return [
        Span("engine.step", 0, 100, -1, "r"),
        Span("agent.recompute_rates", 10, 60, 0, "r"),
        Span("rates.tier_access_profile", 20, 30, 1, "r"),
        Span("rates.tier_access_profile", 35, 45, 1, "r"),
        Span("engine.cancel", 70, 75, 0, "r"),
        Span("engine.step", 110, 150, -1, "r"),
    ]


def test_self_time_arithmetic():
    spans = _tree()
    assert tracing.self_times(spans) == [45, 30, 10, 10, 5, 40]
    layers = tracing.layer_self([spans])
    assert layers["sim"] == pytest.approx((45 + 5 + 40) / 1e9)
    assert layers["runtime"] == pytest.approx((30 + 10 + 10) / 1e9)
    assert tracing.remainder_ns(spans, 0, 200) == 200 - 100 - 40
    # layer self times plus the remainder add up to the wall window
    total = sum(layers.values()) * 1e9 + tracing.remainder_ns(spans, 0, 200)
    assert total == pytest.approx(200)
    stats = tracing.boundary_stats([spans])
    assert stats["engine.step"].n == 2
    assert stats["engine.step"].total_s == pytest.approx(140 / 1e9)
    assert stats["rates.tier_access_profile"].p50_us == pytest.approx(0.01)


def test_nested_same_layer_counted_once():
    spans = [
        Span("scheduler.try_submit", 0, 50, -1, "r"),
        Span("scheduler.submit", 5, 45, 0, "r"),
        Span("scheduler.submit", 60, 70, -1, "r"),
    ]
    secs, n = tracing.layer_inclusive([spans], "scheduler")
    assert (secs, n) == (pytest.approx(60 / 1e9), 2)
    assert tracing.boundary_stats([spans])["scheduler.submit"].total_s == pytest.approx(
        50 / 1e9)


def test_window_reindexes_parents():
    spans = [Span("setup.build_env", 0, 10, -1, "r"),
             Span("setup.make_environment", 2, 8, 0, "r"),
             Span("engine.step", 20, 30, -1, "r"),
             Span("engine.schedule_at", 22, 24, 2, "r")]
    window = tracing.in_window(spans, 15, 40)
    assert [s.parent for s in window] == [-1, 0]
    values, counts = tracing.summarize(spans, [], {}, 15, 40, {})
    assert values["trace.wall_s"] == pytest.approx(25 / 1e9)
    assert values["trace.remainder_s"] == pytest.approx(15 / 1e9)
    assert values["setup.env_s"] == pytest.approx(10 / 1e9)
    assert counts["setup.env_s"] == 1
    assert values["sim.step_self_s"] == pytest.approx(8 / 1e9)


# --------------------------------------------------------------------------- #
# failures are reported
# --------------------------------------------------------------------------- #

def _record(wl, outputs, problems, index=0):
    return {"index": index, "traced": False, "wall_s": 1.0, "setup_s": 0.5,
            "peak_rss_mb": 50.0, "outputs": outputs, "problems": problems,
            "ops": wl.ops(outputs)}


def test_perturbed_expected_output_fails_the_run(tmp_path):
    wl, outputs = _small_batch(tmp_path)
    expected = {"seed": 0, "outputs": json.loads(json.dumps(outputs))}
    assert wl.check(outputs, 0, expected) == []
    expected["outputs"]["makespan"] += 1e-9
    problems = wl.check(outputs, 0, expected)
    assert problems and "makespan" in problems[0]
    # the recorded outputs only bind the seed they were recorded for
    assert wl.check(outputs, 1, expected) == []
    result = run.report(wl.name, 0, False, {
        "wl": wl, "seconds": 1.0,
        "records": [_record(wl, outputs, []), _record(wl, outputs, problems, 1)],
    })
    assert result["correct"] is False
    assert result["attempted"] == 48 and result["failed"] == 24


def test_raising_run_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["paper-batch"]

    def boom(seed, scratch):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(wl, "setup", boom)
    out = tmp_path / "record.json"
    assert sample.main(["--workload", "paper-batch", "--seed", "0", "--scratch",
                        str(tmp_path), "--out", str(out), "--spawned-ns", "0"]) == 0
    record = json.loads(out.read_text())
    assert "simulated crash" in record["error"]
    record["index"] = 0
    result = run.report("paper-batch", 0, False, {"wl": wl, "seconds": 1.0,
                                                  "records": [record]})
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == wl.nominal_ops


def test_expected_outputs_are_recorded_for_default_seeds():
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    for name, wl in workloads.WORKLOADS.items():
        assert expected[name]["seed"] == wl.default_seed
        assert expected[name]["outputs"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER)
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])
    with open(os.path.join(BENCH, "spec.json")) as fh:
        spec = json.load(fh)
    assert set(spec["workloads"]) == set(workloads.WORKLOADS)
    for name, wl in workloads.WORKLOADS.items():
        assert spec["workloads"][name]["seed"] == wl.default_seed
    listed = {m for layer in spec["layers"].values() for m in layer["metrics"]}
    assert listed == {name for name, _, _ in tracing.PER_LAYER}
    assert set(tracing.LAYERS) <= set(spec["layers"])
