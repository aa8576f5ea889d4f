"""Policy micro-benchmarks: the per-tick costs that bound simulator scale.

Large-cluster runs execute one `tick` per node per simulated second and a
rate recomputation per placement change; these measure both at realistic
pageset sizes (a 512 GiB node at 4 MiB chunks ≈ 128k DRAM chunks).

The tick benchmarks are parametrized over both simulation-core backends
(see ``conftest.backend``); each records cells/sec in ``extra_info``,
which the CI bench gate tracks per leg.
"""

import numpy as np

from repro.core.flags import MemFlag
from repro.core.heatmap import PageHeatmap
from repro.core.manager import TieredMemoryManager
from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import DRAM, SWAP, default_tier_specs
from repro.policies.base import AllocationRequest, PolicyContext
from repro.policies.linux import LinuxSwapPolicy
from repro.policies.tpp import TieredDemandPolicy
from repro.util.units import GiB, MiB


def big_node(policy_cls=None, n_tasks=8, task_bytes=GiB(32), backend=None):
    specs = default_tier_specs(dram_capacity=GiB(128))
    node = NodeMemorySystem(specs, "bench", backend=backend)
    ctx = PolicyContext(memory=node, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    policy = (
        TieredMemoryManager(specs)
        if policy_cls is None
        else policy_cls()
    )
    for i in range(n_tasks):
        ps = PageSet(f"t{i}", task_bytes, MiB(4))
        ps.region[:] = 0
        ps.region_flags[0] = MemFlag.NONE
        node.register(ps)
        policy.place(ctx, ps, AllocationRequest(f"t{i}", 0, task_bytes))
        ps.temperature = rng.random(ps.n_chunks).astype(np.float32)
        ps.access_weight = (rng.random(ps.n_chunks) ** 4).astype(np.float32)
    return node, ctx, policy


def total_cells(node):
    """Page chunks of resident simulation state one tick walks."""
    return sum(ps.n_chunks for ps in node.pagesets())


def test_victim_selection_cost(benchmark):
    """coldest_in/hottest_in top-k on a 128k-chunk pageset (a 512 GiB node
    at 4 MiB chunks) — the inner loop of every eviction decision."""
    rng = np.random.default_rng(0)
    n = 131072
    ps = PageSet("victims", n * MiB(4), MiB(4))
    ps.assign(np.arange(n), 0)
    ps.temperature = rng.random(n).astype(np.float32)
    k = 512

    def select():
        return ps.coldest_in(0, k), ps.hottest_in(0, k)

    cold, hot = benchmark(select)
    assert cold.size == k and hot.size == k


def test_manager_tick_cost(benchmark, backend, record_throughput):
    """One IMME daemon tick over 8 x 32 GiB tasks (256 GiB of metadata)."""
    node, ctx, policy = big_node(backend=backend)
    benchmark(lambda: policy.tick(ctx))
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def refill_dram(node):
    """Swap every swapped-out chunk back into DRAM while it has room, so
    the next kswapd tick starts above its high watermark again."""
    for ps in node.pagesets():
        room = node.free(DRAM) // ps.chunk_size
        swapped = ps.chunks_in(SWAP)[:room]
        if swapped.size:
            node.migrate(ps, swapped, DRAM)


def test_linux_kswapd_tick_cost(benchmark, backend, record_throughput):
    """One kswapd tick doing real reclaim: each round's setup refills DRAM
    to capacity (far above the 0.5 high watermark), so every timed tick
    swaps about half of DRAM out through the global LRU scan instead of
    finding rss already under the watermark."""
    node, ctx, policy = big_node(
        policy_cls=lambda: LinuxSwapPolicy(high_watermark=0.5, low_watermark=0.45),
        backend=backend,
    )
    cap = node.capacity(DRAM)
    refilled = []

    def setup():
        refill_dram(node)
        assert node.rss(DRAM) > policy.high_watermark * cap
        refilled.append(node.rss(DRAM))

    benchmark.pedantic(policy.tick, args=(ctx,), setup=setup, rounds=10, iterations=1)
    assert node.rss(DRAM) < refilled[-1] - 0.4 * cap  # the last tick reclaimed
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_tpp_tick_cost(benchmark, backend, record_throughput):
    node, ctx, policy = big_node(policy_cls=lambda: TieredDemandPolicy(), backend=backend)
    benchmark(lambda: policy.tick(ctx))
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_heatmap_advance_cost(benchmark, backend, record_throughput):
    """The whole-node heatmap pass — fused temperature decay + access gain
    over every resident chunk — at a dense colocation of 128 x 2 GiB
    tasks (256 GiB of metadata, 64k cells).  This is the per-cell hot
    loop of every cluster run: the arena runs one fused sweep per
    *node*, where a per-pageset loop paid ~3 numpy dispatches *per task*
    per tick (~10x slower at 128 tasks/node, best-of on an idle
    machine, when both cores existed)."""
    node, ctx, policy = big_node(n_tasks=128, task_bytes=GiB(2), backend=backend)
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    benchmark(lambda: heatmap.advance_node(node, 1.0, rates))
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_daemon_pass_cost(benchmark, backend, record_throughput):
    """The full per-node daemon pass — heatmap advance + IMME tick — over
    32 resident tasks (a dense colocation; same 256 GiB of metadata as
    the tick benches).  It mixes migration-heavy early rounds with the
    steady state; the exact core keeps the movement daemon's per-task
    control flow to keep decisions bit-identical.  The arena-fast leg
    batches that daemon loop too — bench_movement_daemon.py isolates
    the steady state where that pays off (see docs/performance.md)."""
    node, ctx, policy = big_node(n_tasks=32, task_bytes=GiB(8), backend=backend)
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    def daemon_pass():
        heatmap.advance_node(node, 1.0, rates)
        policy.tick(ctx)

    benchmark(daemon_pass)
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_rate_recompute_cost(benchmark):
    """One node rate pass (``NodeAgent.recompute_rates``) over 64
    colocated running tasks: memoised access profiles gathered into one
    demand matrix, bandwidth contention, one slowdown vector pass, and the
    per-task completion reschedule.  Placements stay put between passes,
    so every profile is a memo hit — the common case in a simulation run,
    where most recomputes follow another task's phase change or a daemon
    tick that moved nothing."""
    from repro.metrics.collector import MetricsRegistry
    from repro.runtime.execution import TaskState
    from repro.runtime.node_agent import NodeAgent
    from repro.sim.engine import SimulationEngine
    from repro.util.units import GBps
    from repro.workflows.patterns import UniformPattern
    from repro.workflows.task import TaskPhase, TaskSpec, WorkloadClass

    specs = default_tier_specs(dram_capacity=GiB(512))
    node = NodeMemorySystem(specs, "bench")
    agent = NodeAgent(
        SimulationEngine(), node, TieredMemoryManager(specs), MetricsRegistry(),
        cores=64, chunk_size=MiB(4),
    )
    phase = TaskPhase(
        "p", base_time=10.0, compute_frac=0.4, lat_frac=0.4, bw_frac=0.2,
        demand_bandwidth=GBps(5.0), pattern=UniformPattern(),
    )
    for i in range(64):
        agent.start_task(
            TaskSpec(f"t{i}", WorkloadClass.GENERIC, GiB(8), GiB(4), (phase,))
        )
    assert all(te.state is TaskState.RUNNING for te in agent.running.values())

    benchmark(agent.recompute_rates)
    assert len(agent.running) == 64
