"""End-to-end simulator benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-batch --seed 0 --seconds 40 --trace 0

Runs one workload (``paper-batch``, ``service-shed`` or ``figure-sweep``,
see ``perfbench/spec.json``) as repeated samples, each in a fresh
interpreter, for about ``--seconds`` seconds, checks every sample's
simulated outputs, and prints a table followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
samples); with ``--trace 1`` untraced and traced samples alternate and
the metrics are the per-layer ones (medians over the traced samples),
plus the tracing overhead.  ``failed / attempted`` is the run's failed
fraction: simulated tasks on ``paper-batch``, admitted tasks that did not
complete on ``service-shed``, quarantined cells on ``figure-sweep``; a
sample that raises or fails its output check counts all its operations
as failed.

The benchmark reads and writes only inside the checkout: scratch files go
to ``.perfbench/tmp`` and are removed afterwards, traced runs leave their
layer table in ``.perfbench/last-trace-<workload>.json`` and their spans
in ``.perfbench/last-trace-<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
#: every run finishes well inside this many seconds
HARD_LIMIT_S = 170.0
MIN_SAMPLES = 3

END_TO_END = {
    "wall_s": "s",
    "tasks_per_s": "1/s",
    "arrivals_per_s": "1/s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The simulator cannot be run from this checkout at all."""


def child_env(scratch: str) -> Dict[str, str]:
    """The samples' environment: no CI matrix settings, one BLAS thread,
    temporary files inside the checkout, fixed hash seed."""
    env = dict(os.environ)
    for var in ("REPRO_CORE", "REPRO_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP"):
        env.pop(var, None)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=scratch,
    )
    return env


def spawn(args: List[str], scratch: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``sample.py`` in its own process group and reap the whole group
    (sweep workers included) if it overruns."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), *args]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(scratch), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return subprocess.CompletedProcess(cmd, -9, out, err + "\nsample timed out")
    finally:
        _reap_group(proc.pid)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _reap_group(pgid: int, grace: float = 5.0) -> None:
    """Kill whatever is left of a sample's process group (sweep workers
    orphaned by a crash) and wait, for at most ``grace`` seconds, until
    the group is gone."""
    stop = time.monotonic() + grace
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def sample(workload: str, seed: int, tmp_root: str, index: int, traced: bool,
           deadline: float) -> dict:
    scratch = tempfile.mkdtemp(prefix=f"s{index}-", dir=tmp_root)
    out = os.path.join(scratch, "record.json")
    args = ["--workload", workload, "--seed", str(seed), "--scratch", scratch,
            "--out", out, "--expected", EXPECTED]
    if traced:
        args += ["--trace", "--spans", os.path.join(tmp_root, f"spans-{index}.json")]
    try:
        args += ["--spawned-ns", str(time.perf_counter_ns())]
        proc = spawn(args, scratch, deadline - time.monotonic())
        try:
            with open(out) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"error": f"sample exited {proc.returncode} without a record",
                      "traceback": proc.stderr[-4000:]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["index"] = index
    return record


def sample_ops(wl: workloads.Workload, rec: dict) -> Dict[str, int]:
    """Operation counts of one sample; a sample that raised or failed its
    check counts every operation as failed."""
    if "error" in rec:
        return {"attempted": wl.nominal_ops, "failed": wl.nominal_ops}
    if rec["problems"]:
        n = rec["ops"]["attempted"] or wl.nominal_ops
        return {"attempted": n, "failed": n}
    return {"attempted": rec["ops"]["attempted"], "failed": rec["ops"]["failed"]}


def sample_metrics(rec: dict) -> Dict[str, float]:
    """The end-to-end metrics of one sample that produced a record."""
    wall = rec["wall_s"]
    return {
        "wall_s": wall,
        "tasks_per_s": rec["ops"]["tasks"] / wall,
        "arrivals_per_s": rec["ops"]["arrivals"] / wall,
        "cells_per_s": rec["ops"]["cells"] / wall,
        "setup_s": rec["setup_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def layer_metrics(records: List[dict]) -> Dict[str, float]:
    """Median of each per-layer metric over the traced samples, plus the
    tracing overhead against the untraced samples of the same run."""
    traced = [r for r in records if r.get("traced") and "layers" in r]
    plain = [r for r in records if not r.get("traced") and "error" not in r]
    out: Dict[str, float] = {}
    for name, _unit, _better in tracing.PER_LAYER:
        vals = [r["layers"]["values"][name] for r in traced if name in r["layers"]["values"]]
        if vals:
            out[name] = statistics.median(vals)
    untraced = statistics.median(r["wall_s"] for r in plain) if plain else 0.0
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = out.get("trace.wall_s", 0.0) - untraced
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_parent = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_parent)
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        warm = spawn(["--warmup"], tmp_root, deadline - time.monotonic())
        if warm.returncode != 0:
            raise SetupError(f"cannot import the simulator:\n{warm.stderr[-4000:]}")
        records: List[dict] = []
        t0 = time.monotonic()
        durations: List[float] = []
        min_samples = 2 if trace else MIN_SAMPLES
        while True:
            elapsed = time.monotonic() - t0
            estimate = statistics.median(durations) if durations else 0.0
            if len(records) >= min_samples and elapsed + estimate > seconds:
                break
            # keep a margin for one more sample inside the hard limit
            if records and time.monotonic() + 1.5 * max(durations) > deadline:
                break
            traced = trace and len(records) % 2 == 1
            s0 = time.monotonic()
            records.append(sample(workload, seed, tmp_root, len(records), traced, deadline))
            durations.append(time.monotonic() - s0)
        seconds_taken = time.monotonic() - t0
        traced = [r["index"] for r in records if r.get("traced")]
        if traced:
            spans_file = os.path.join(tmp_root, f"spans-{traced[-1]}.json")
            if os.path.exists(spans_file):
                _keep_trace(workload, seed, records, spans_file)
        return {"records": records, "seconds": seconds_taken, "wl": wl}
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def _keep_trace(workload: str, seed: int, records: List[dict], spans_file: str) -> None:
    """Leave the last traced sample's layer table and spans in the output
    directory for inspection."""
    traced = [r for r in records if r.get("traced") and "layers" in r]
    base = os.path.join(OUT_DIR, f"last-trace-{workload}")
    os.replace(spans_file, base + ".spans.json")
    with open(base + ".json", "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "layers": traced[-1]["layers"] if traced else None}, fh, indent=1)


def report(workload: str, seed: int, trace: bool, measured: dict) -> dict:
    wl: workloads.Workload = measured["wl"]
    records = measured["records"]
    attempted = failed = 0
    correct = True
    for r in records:
        ops = sample_ops(wl, r)
        attempted += ops["attempted"]
        failed += ops["failed"]
        if "error" in r or r["problems"]:
            correct = False
    # every sample of one seed must have simulated exactly the same thing
    outs = [json.dumps(r["outputs"], sort_keys=True) for r in records if "outputs" in r]
    if len(set(outs)) > 1:
        correct = False
        print("outputs differ between samples of the same seed", file=sys.stderr)
    for r in records:
        if "error" in r:
            print(f"sample {r['index']} raised: {r['error']}\n{r.get('traceback', '')}",
                  file=sys.stderr)
        elif r["problems"]:
            print(f"sample {r['index']} failed its output check: {r['problems']}",
                  file=sys.stderr)

    if trace:
        values = layer_metrics(records)
        units = tracing.UNITS
        traced = [r for r in records if r.get("traced") and "layers" in r]
        if traced:
            _print_layers(traced[-1]["layers"], values)
    else:
        per_sample = [sample_metrics(r) for r in records if "error" not in r]
        values = {name: statistics.median(m[name] for m in per_sample)
                  for name in END_TO_END} if per_sample else {}
        units = END_TO_END
    n_plain = sum(1 for r in records if not r.get("traced"))
    print(f"\n{workload} seed={seed}: {len(records)} samples ({n_plain} untraced, "
          f"{len(records) - n_plain} traced) in {measured['seconds']:.1f} s; "
          "metrics are medians")
    if not trace:
        for name, unit in END_TO_END.items():
            if name in values:
                vals = ", ".join(f"{m[name]:.4g}" for m in per_sample)
                print(f"  {name:<16} {values[name]:>12.6g} {unit:<4} "
                      f"(n={len(per_sample)}: {vals})")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    return {"correct": correct, "attempted": max(1, attempted), "failed": failed,
            "metrics": metrics}


def _print_layers(layers: dict, values: Dict[str, float]) -> None:
    """The traced sample's table, then the driving process's wall time as
    layer self times plus the remainder."""
    print("\n".join(layers["table"]))
    own = layers["parent_layer_self_s"]
    lv = layers["values"]
    wall = lv["trace.wall_s"]
    print("\nwall-time decomposition of the driving process (last traced sample):")
    for layer, secs in own.items():
        print(f"  {layer:<12} {secs:10.4f} s  {secs / wall:6.1%}")
    print(f"  {'remainder':<12} {lv['trace.remainder_s']:10.4f} s  "
          f"{lv['trace.remainder_frac']:6.1%}")
    print(f"  {'= wall':<12} {sum(own.values()) + lv['trace.remainder_s']:10.4f} s  "
          f"(traced wall_s {wall:.4f} s, untraced {values['trace.untraced_wall_s']:.4f} s, "
          f"overhead {values['trace.overhead_s']:+.4f} s)")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end simulator benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's recorded seed)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="how long to keep taking samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        measured = measure(args.workload, seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, seed, bool(args.trace), measured)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
