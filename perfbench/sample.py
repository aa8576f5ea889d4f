"""One benchmark sample in a fresh interpreter.

``run.py`` starts this script once per sample so every sample pays (and
measures) the same set-up: interpreter start, importing ``repro``,
generating the workload and building the environment.  The sample then
runs the workload to a checked result and writes one JSON record to
``--out``:

* ``setup_s`` — from the parent's spawn timestamp to the first event,
* ``wall_s`` — from the first event to a checked result,
* ``peak_rss_mb`` — this process or its largest worker, whichever is larger,
* the simulated outputs, the problems the output check found, and the
  operation counts.

With ``--trace`` the layer boundaries are wrapped for the whole sample
and the record also carries the per-layer metrics; the spans themselves
are written to ``--spans`` when the run ends.

``--warmup`` only byte-compiles and imports the simulator (nothing is
timed), so the first timed sample never pays for compilation.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_repro():
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise ImportError(f"repro imported from {where}, not from {SRC}")
    return repro


def _dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total / 2**20


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def warmup() -> None:
    import compileall

    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    _import_repro()
    import workloads  # noqa: F401

    import repro.experiments.common  # noqa: F401
    import repro.scenarios.cli  # noqa: F401
    import repro.scenarios.paper  # noqa: F401
    import repro.service  # noqa: F401


def run_sample(args) -> dict:
    t_spawn = args.spawned_ns
    record: dict = {"workload": args.workload, "seed": args.seed, "traced": args.trace}
    t_import0 = time.perf_counter_ns()
    _import_repro()
    import workloads

    import repro.envs.environments  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.scenarios.cli  # noqa: F401

    import_s = (time.perf_counter_ns() - t_import0) / 1e9
    wl = workloads.WORKLOADS[args.workload]
    expected = None
    if args.expected:
        with open(args.expected) as fh:
            expected = json.load(fh).get(args.workload)

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(f"{args.workload}-{args.seed}-{os.getpid()}",
                                    spill_dir=args.scratch)
        recorder.install()
    try:
        state = wl.setup(args.seed, args.scratch)
        t_run = time.perf_counter_ns()
        result = wl.run(state)
        outputs = wl.outputs(state, result)
        problems = wl.check(outputs, args.seed, expected)
        t_end = time.perf_counter_ns()
    finally:
        if recorder is not None:
            recorder.restore()
    t_first = state.get("t_first", t_run)
    record.update(
        setup_s=(t_first - t_spawn) / 1e9,
        wall_s=(t_end - t_first) / 1e9,
        peak_rss_mb=_peak_rss_mb(),
        outputs=outputs,
        problems=problems,
        ops=wl.ops(outputs),
    )
    if recorder is not None:
        record["layers"] = _layer_record(recorder, state, t_first, t_end, import_s, args)
    return record


def _layer_record(recorder, state, t_first, t_end, import_s, args) -> dict:
    import tracing

    parent_doc = recorder.to_dict()
    parent = tracing.spans_from_dict(parent_doc)
    worker_docs, workers = [], []
    counters = dict(recorder.counters)
    for path in sorted(glob.glob(os.path.join(args.scratch, "spans-*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        worker_docs.append(doc)
        workers.append(tracing.spans_from_dict(doc))
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    extra = {"import_s": import_s, "map_jobs": recorder.map_jobs}
    if "sup" in state:
        extra["map_items"] = len(state["sup"].results)
    if "cache_dir" in state:
        extra["cache_mb"] = _dir_mb(state["cache_dir"])
        extra["run_dir_mb"] = _dir_mb(state["tel_dir"])
        ledger = os.path.join(state["tel_dir"], "ledger.ndjson")
        if os.path.exists(ledger):
            with open(ledger) as fh:
                extra["ledger_entries"] = sum(1 for line in fh if line.strip())
    values, counts = tracing.summarize(parent, workers, counters, t_first, t_end, extra)
    window = tracing.in_window(parent, t_first, t_end)
    parent_layers = tracing.layer_self([window])
    stats = tracing.boundary_stats([window, *workers])
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"window": [t_first, t_end], "parent": parent_doc,
                       "workers": worker_docs}, fh)
    return {
        "values": values,
        "counts": counts,
        "parent_layer_self_s": parent_layers,
        "table": tracing.format_table(values, counts, stats),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scratch", help="fresh directory for this sample's files")
    ap.add_argument("--out", help="where to write the sample record (JSON)")
    ap.add_argument("--expected", default=None, help="recorded outputs (JSON)")
    ap.add_argument("--spawned-ns", type=int, default=0,
                    help="parent's perf_counter_ns at spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args(argv)
    if args.warmup:
        warmup()
        return 0
    try:
        record = run_sample(args)
    except Exception as exc:  # a run that raises is reported, not hidden
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": args.trace,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
