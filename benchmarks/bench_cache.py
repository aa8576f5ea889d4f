"""Result-cache benchmark.

Cold-versus-warm wall clock for the same four-experiment sweep that
``bench_parallel_sweep`` runs live: the cold pass executes every cell and
writes the cache, the warm pass must serve everything from disk and skip
execution entirely.  A second micro-benchmark isolates the per-cell
read/write overhead so regressions in the codec or store show up even
when the sweep-level numbers stay comfortable.
"""

import time

from repro.cache import ResultCache, cell_keys
from repro.experiments.runner import run_all

#: same sweep as bench_parallel_sweep so the cold baseline is comparable
SWEEP = ["validation", "cold-pages", "fig01", "ext-utilization"]

#: warm runs replay from disk, so anything below this is a regression
MIN_WARM_SPEEDUP = 5.0


def _series(results):
    return {name: (r.xlabels, r.series) for name, r in results.items()}


def test_warm_cache_replays_sweep(benchmark, tmp_path):
    cache_dir = str(tmp_path / "cells")

    t0 = time.perf_counter()
    cold = run_all(SWEEP, verbose=False, cache_dir=cache_dir)
    t_cold = time.perf_counter() - t0

    warm = benchmark.pedantic(
        lambda: run_all(SWEEP, verbose=False, cache_dir=cache_dir),
        rounds=1,
        iterations=1,
    )
    assert _series(warm) == _series(cold)
    for name in SWEEP:
        assert warm[name].to_csv() == cold[name].to_csv()
    if benchmark.stats is None:  # --benchmark-disable: no timing to compare
        return
    t_warm = benchmark.stats.stats.mean
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    print(
        f"\n{len(SWEEP)}-experiment sweep: cold {t_cold:.2f}s, "
        f"warm {t_warm:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_WARM_SPEEDUP


def _replicate_cell(seed: int, n: int = 2048):
    import numpy as np

    rng = np.random.default_rng(seed)
    return {"series": rng.random(n), "mean": float(rng.random())}


def test_per_cell_read_write_overhead(benchmark, tmp_path):
    """Store round-trip cost for a representative array-bearing cell
    result — this is the per-cell tax a cold run pays over --no-cache."""
    cache = ResultCache(tmp_path / "micro")
    keys = [cell_keys(_replicate_cell, {"n": 2048}, seed=s) for s in range(64)]
    payload = _replicate_cell(0)

    t0 = time.perf_counter()
    for key in keys:
        cache.put(key, payload)
    write_us = (time.perf_counter() - t0) / len(keys) * 1e6

    def read_all():
        for key in keys:
            hit, _ = cache.get(key)
            assert hit

    benchmark.pedantic(read_all, rounds=3, iterations=1)
    if benchmark.stats is None:  # --benchmark-disable: no timing to bound
        return
    read_us = benchmark.stats.stats.mean / len(keys) * 1e6
    print(
        f"\nper-cell overhead: write {write_us:.0f}us, read {read_us:.0f}us "
        f"({len(keys)} cells, 2048-point float64 series each)"
    )
    # both sides must stay far below the cost of the cheapest real cell
    # (hundreds of ms); single-digit milliseconds is already generous
    assert write_us < 10_000 and read_us < 10_000
