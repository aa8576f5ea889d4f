#!/usr/bin/env python
"""Service-mode smoke check for CI.

Runs one registered steady-state service scenario under the active
``$REPRO_CORE`` backend, once per admission policy, and validates each
report's *schema*: every field a downstream consumer (CLI table,
experiment series, cache codec) reads must be present, typed, and
internally consistent, and every run must have actually admitted and
completed work.  The legs:

* the scenario as registered (``accept-all`` for the catalogue's);
* ``queue-cap`` with a cap of 2 at ten times the registered rate — the
  registered rates never leave a job queued, so only an overloaded
  stream exercises the shed path — which must reject arrivals;
* ``memory-headroom`` at headroom 1.0.

Exit 0 on success, 1 with a diagnostic otherwise.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [scenario-name]
"""

from __future__ import annotations

import dataclasses
import math
import sys

from repro.cache.codec import decode, encode
from repro.scenarios import run_service
from repro.scenarios.registry import scenario
from repro.service import ClassLatency, ServiceReport, ServiceSpec, WindowRecord

DEFAULT = "ext-steady-state/IMME:0.10"


def check(cond: bool, what: str, failures: list) -> None:
    if not cond:
        failures.append(what)


def validate(report: ServiceReport) -> list:
    f: list = []
    check(isinstance(report, ServiceReport), "result is a ServiceReport", f)
    check(report.offered > 0, f"offered > 0 (got {report.offered})", f)
    check(report.admitted > 0, f"admitted > 0 (got {report.admitted})", f)
    check(report.completed > 0, f"completed > 0 (got {report.completed})", f)
    check(report.admitted + report.rejected == report.offered,
          "admitted + rejected == offered", f)
    check(report.duration > 0, "duration > 0", f)
    check(len(report.windows) > 0, "at least one window", f)
    check(0 <= report.warmup_windows <= len(report.windows),
          "warm-up cut within the window range", f)
    check(isinstance(report.converged, bool), "converged is a bool", f)
    for w in report.windows:
        check(isinstance(w, WindowRecord), f"window {w!r} typed", f)
        check(w.end > w.start, f"window {w.index} has positive span", f)
        check(0.0 <= w.utilization <= 1.0, f"window {w.index} utilization in [0,1]", f)
        check(w.arrivals == w.admitted + w.rejected,
              f"window {w.index} arrival split reconciles", f)
    check(sum(w.arrivals for w in report.windows) == report.offered,
          "window arrivals sum to offered", f)
    check(sum(w.completed for w in report.windows) == report.completed,
          "window completions sum to completed", f)
    check(0.0 <= report.steady_utilization <= 1.0, "steady utilization in [0,1]", f)
    check(report.steady_queue_depth >= 0.0, "steady queue depth >= 0", f)
    check(len(report.class_latency) > 0, "at least one class completed", f)
    for cl in report.class_latency:
        check(isinstance(cl, ClassLatency), f"class latency {cl!r} typed", f)
        check(cl.count > 0, f"{cl.wclass}: count > 0", f)
        check(math.isfinite(cl.mean), f"{cl.wclass}: finite mean", f)
        check(cl.p50 <= cl.p95 <= cl.p99, f"{cl.wclass}: ordered percentiles", f)
    check(decode(encode(report)) == report, "codec round-trip identity", f)
    return f


def admission_legs(service: ServiceSpec) -> list:
    """``(label, service spec)`` per admission policy the smoke runs."""
    return [
        (service.admission, service),
        ("queue-cap", dataclasses.replace(
            service, admission="queue-cap", queue_cap=2, rate=10 * service.rate)),
        ("memory-headroom", dataclasses.replace(
            service, admission="memory-headroom", headroom=1.0)),
    ]


def main(argv: list) -> int:
    name = argv[1] if len(argv) > 1 else DEFAULT
    spec = scenario(name)
    if spec.service is None:
        print(f"FAIL: scenario {name!r} has no service section")
        return 1
    failed = 0
    for label, service in admission_legs(spec.service):
        report = run_service(dataclasses.replace(spec, service=service))
        failures = validate(report)
        if label == "queue-cap":
            check(report.rejected > 0,
                  f"queue-cap sheds arrivals (rejected {report.rejected})", failures)
        print(f"== {name} [{label}]")
        print(report.to_table())
        if failures:
            failed += 1
            print(f"\nFAIL: {len(failures)} schema violations in {name} [{label}]:")
            for what in failures:
                print(f"  - {what}")
            continue
        print(f"\nOK: {name} [{label}] report schema valid "
              f"(admitted={report.admitted}, rejected={report.rejected}, "
              f"completed={report.completed})\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
