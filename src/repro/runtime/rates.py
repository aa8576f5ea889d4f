"""The fluid progress-rate model (DESIGN.md §4).

A running phase advances at rate ``1/slowdown`` where the slowdown blends
three placement-dependent terms using the phase's sensitivity mix:

* the **latency** term compares the access-weighted mean latency of the
  task's pages against pure DRAM (swap-resident pages pay an amortised
  major-fault penalty; page-cache-shadowed pages pay ~DRAM),
* the **bandwidth** term compares demanded against achieved throughput
  (achieved sums fair-share bandwidth over *every* tier the pages span —
  multi-path aggregation, the paper's BW-flag payoff),
* a **migration overhead** term charges for daemon data movement
  (the ≈4 % runtime overhead reported in §IV-D4).

All functions are pure.  The node agent evaluates every running task in
one vector pass (:func:`demand_matrix`, :func:`slowdown_vector`) over
access profiles it memoises per placement version; :func:`tier_demand`
and :func:`phase_slowdown` are the same kernels applied to one pageset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..memory.pageset import PageSet
from ..memory.tiers import DRAM, NUM_TIERS, SWAP, TierKind, TierSpec
from ..util.units import ns, us
from ..util.validation import check_non_negative, check_positive
from ..workflows.task import TaskPhase

__all__ = [
    "PROFILE_WIDTH",
    "RateModelConfig",
    "demand_matrix",
    "loaded_latency_factor",
    "phase_row",
    "phase_slowdown",
    "profile_row",
    "slowdown_vector",
    "tier_access_profile",
    "tier_demand",
]


@dataclass(frozen=True)
class RateModelConfig:
    """Tuning constants for the progress model.

    ``swap_access_latency`` is the *amortised* per-access cost of a
    swap-resident page: a 4 KiB-page major fault costs ~tens of µs of
    fault handling plus the read, amortised over the accesses a page
    serves before being evicted again under thrash.  The default keeps
    the DRAM:swap effective-latency ratio at ~125x, which reproduces the
    order-of-magnitude collapse of Fig. 1's swap-constrained bars without
    overstating it (the paper's worst CBE:IMME ratio is ~8x).
    """

    swap_access_latency: float = us(10.0)
    shadow_access_latency: float = ns(150.0)
    migration_overhead_coeff: float = 0.25
    migration_overhead_cap: float = 0.08
    max_slowdown: float = 1e5
    #: model *loaded latency*: a tier's effective access latency rises as
    #: its bandwidth utilisation approaches saturation (the paper's §VI
    #: future-work item "support variable latency and bandwidth").
    loaded_latency: bool = False
    #: latency multiplier at 100% bandwidth utilisation (quadratic ramp).
    loaded_latency_max_factor: float = 4.0

    def __post_init__(self) -> None:
        check_positive(self.swap_access_latency, "swap_access_latency")
        check_positive(self.shadow_access_latency, "shadow_access_latency")
        check_non_negative(self.migration_overhead_coeff, "migration_overhead_coeff")
        check_non_negative(self.migration_overhead_cap, "migration_overhead_cap")
        check_positive(self.max_slowdown, "max_slowdown")
        if self.loaded_latency_max_factor < 1.0:
            raise ValueError("loaded_latency_max_factor must be >= 1")


def loaded_latency_factor(utilization: float, max_factor: float) -> float:
    """Quadratic loaded-latency ramp: 1x when idle, ``max_factor`` at
    saturation — the shape of measured DRAM/CXL loaded-latency curves."""
    rho = min(max(float(utilization), 0.0), 1.0)
    return 1.0 + (max_factor - 1.0) * rho * rho


def tier_access_profile(ps: PageSet) -> tuple[np.ndarray, float]:
    """Split the phase's access distribution by *service point*.

    Returns ``(weights[NUM_TIERS], shadow_weight)`` where ``weights[t]``
    is the fraction of accesses served by tier ``t`` directly and
    ``shadow_weight`` the fraction served from DRAM page-cache shadows.
    Weights are normalised over mapped chunks; all-zero when idle.
    """
    mask = ps.mapped_mask
    w = ps.access_weight
    total = float(w[mask].sum())
    out = np.zeros(NUM_TIERS, dtype=np.float64)
    if total <= 0:
        return out, 0.0
    shadow = mask & ps.in_page_cache
    direct = mask & ~ps.in_page_cache
    if direct.any():
        np.add.at(out, ps.tier[direct].astype(np.int64), w[direct].astype(np.float64))
    shadow_weight = float(w[shadow].sum()) / total
    out /= total
    return out, shadow_weight


#: width of one access-profile row: ``NUM_TIERS`` direct weights, then
#: the page-cache shadow weight (see :func:`tier_access_profile`)
PROFILE_WIDTH = NUM_TIERS + 1


def profile_row(ps: PageSet) -> tuple[float, ...]:
    """:func:`tier_access_profile` as one ``PROFILE_WIDTH`` row."""
    weights, shadow_weight = tier_access_profile(ps)
    return (*weights.tolist(), shadow_weight)


def phase_row(phase: TaskPhase) -> tuple[float, float, float, float]:
    """The four phase parameters the rate kernels read, in column order
    ``(compute_frac, lat_frac, bw_frac, demand_bandwidth)``."""
    return phase.compute_frac, phase.lat_frac, phase.bw_frac, phase.demand_bandwidth


def demand_matrix(profiles: np.ndarray, demand_bandwidth: np.ndarray) -> np.ndarray:
    """Per-tier throughput demand (bytes/s), one row per task.

    ``profiles`` is ``(n, PROFILE_WIDTH)`` access-profile rows and
    ``demand_bandwidth`` the ``(n,)`` phase demands.  Shadowed accesses
    demand DRAM (the copy they read is there).
    """
    demand = profiles[:, :NUM_TIERS] * demand_bandwidth[:, None]
    demand[:, int(DRAM)] += profiles[:, NUM_TIERS] * demand_bandwidth
    return demand


def slowdown_vector(
    profiles: np.ndarray,
    phases: np.ndarray,
    achieved_bandwidth: np.ndarray,
    specs: Mapping[TierKind, TierSpec],
    *,
    migration_penalty: float = 0.0,
    config: RateModelConfig = RateModelConfig(),
    tier_bw_utilization: "np.ndarray | None" = None,
) -> np.ndarray:
    """Instantaneous slowdown of ``n`` phases under their placements.

    ``profiles`` is ``(n, PROFILE_WIDTH)`` access-profile rows, ``phases``
    ``(n, 4)`` :func:`phase_row` rows and ``achieved_bandwidth`` each
    task's summed fair-share throughput across tiers (from
    :func:`repro.memory.contention.allocate_bandwidth`).  With
    ``config.loaded_latency`` set, ``tier_bw_utilization`` (the node-wide
    per-tier bandwidth utilisation) inflates each tier's effective latency
    along the loaded-latency curve.  Every entry is >= its phase's
    ``compute_frac`` (never faster than pure compute), clamped at
    ``config.max_slowdown``.

    Each expression applies the same IEEE operations in the same order as
    the per-task scalar formulation, and the ``np.where`` selections
    reproduce Python's ``max``/``min`` tie and NaN behaviour, so every
    element is bit-identical to it (see ``docs/rate-model.md``).
    """
    lat_tiers = [specs[t].latency for t in (TierKind.DRAM, TierKind.PMEM, TierKind.CXL)]
    if config.loaded_latency and tier_bw_utilization is not None:
        lat_tiers = [
            base * loaded_latency_factor(
                float(tier_bw_utilization[t]), config.loaded_latency_max_factor
            )
            for t, base in enumerate(lat_tiers)
        ]
    lat = profiles[:, NUM_TIERS] * config.shadow_access_latency
    for t, base in enumerate(lat_tiers):
        lat += profiles[:, t] * base
    lat += profiles[:, int(SWAP)] * config.swap_access_latency
    lat_mult = lat / specs[DRAM].latency
    # idle / not yet weighted: treat as DRAM-resident
    idle = profiles[:, :NUM_TIERS].sum(axis=1) + profiles[:, NUM_TIERS] <= 0
    lat_mult[idle] = 1.0
    compute, lat_frac, bw_frac, demand = phases.T
    floor = np.where(1e-9 > achieved_bandwidth, 1e-9, achieved_bandwidth)
    bw_mult = demand / floor
    bw_mult = np.where(bw_mult > 1.0, bw_mult, 1.0)
    bw_mult[~((demand > 0) & (bw_frac > 0))] = 1.0
    slowdown = (
        compute
        + lat_frac * lat_mult
        + bw_frac * bw_mult
        + min(config.migration_overhead_cap, max(0.0, migration_penalty))
    )
    slowdown = np.where(compute > slowdown, compute, slowdown)
    return np.where(config.max_slowdown < slowdown, config.max_slowdown, slowdown)


def tier_demand(ps: PageSet, demand_bandwidth: float) -> np.ndarray:
    """Per-tier throughput demand (bytes/s) of one pageset for the
    bandwidth-contention matrix — a one-row :func:`demand_matrix`."""
    check_non_negative(demand_bandwidth, "demand_bandwidth")
    bw = np.array([demand_bandwidth], dtype=np.float64)
    return demand_matrix(np.array([profile_row(ps)]), bw)[0]


def phase_slowdown(
    phase: TaskPhase,
    ps: PageSet,
    specs: Mapping[TierKind, TierSpec],
    achieved_bandwidth: float,
    *,
    migration_penalty: float = 0.0,
    config: RateModelConfig = RateModelConfig(),
    tier_bw_utilization: "np.ndarray | None" = None,
) -> float:
    """Instantaneous slowdown of ``phase`` under ``ps``'s placement — a
    one-row :func:`slowdown_vector` (see there for the arguments)."""
    out = slowdown_vector(
        np.array([profile_row(ps)]),
        np.array([phase_row(phase)], dtype=np.float64),
        np.array([achieved_bandwidth], dtype=np.float64),
        specs,
        migration_penalty=migration_penalty,
        config=config,
        tier_bw_utilization=tier_bw_utilization,
    )
    return float(out[0])
