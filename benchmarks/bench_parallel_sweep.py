"""Parallel sweep executor benchmark.

Wall-clock of a four-experiment sweep at ``jobs=1`` versus
``jobs=cpu_count``, asserting the two produce identical figures and
reporting the realised speedup.  On a multi-core runner the parallel run
should approach ``min(cpu_count, 4)``x; on a single core it degrades to
the in-process path with no pool overhead.
"""

import time

from repro.experiments.runner import run_all
from repro.parallel import available_parallelism, supports_fork

#: four cheap-but-real experiments: enough work to amortise worker forks,
#: small enough that the benchmark stays in CI budget
SWEEP = ["validation", "cold-pages", "fig01", "ext-utilization"]


def _series(results):
    return {name: (r.xlabels, r.series) for name, r in results.items()}


def test_parallel_sweep_matches_and_speeds_up(benchmark):
    # cache off on both sides: this benchmark measures *live* execution
    # (bench_cache.py measures the cache)
    t0 = time.perf_counter()
    sequential = run_all(SWEEP, verbose=False, jobs=1, cache_dir=None)
    t_seq = time.perf_counter() - t0

    jobs = available_parallelism()
    parallel = benchmark.pedantic(
        lambda: run_all(SWEEP, verbose=False, jobs=jobs, cache_dir=None),
        rounds=1,
        iterations=1,
    )
    assert _series(parallel) == _series(sequential)
    if benchmark.stats is None:  # --benchmark-disable: no timing to compare
        return
    t_par = benchmark.stats.stats.mean
    speedup = t_seq / t_par if t_par > 0 else float("inf")
    print(
        f"\n{len(SWEEP)}-experiment sweep: jobs=1 {t_seq:.2f}s, "
        f"jobs={jobs} {t_par:.2f}s, speedup {speedup:.2f}x "
        f"(fork={'yes' if supports_fork() else 'no'}, cores={jobs})"
    )
    if supports_fork() and jobs >= 2:
        # a pool must never be slower than sequential by more than its
        # fork/pickle overhead; real speedup needs real cores
        assert speedup > 0.8
