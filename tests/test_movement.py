"""Intelligent page-movement tests: promotion, exchange, proactive swap."""

import numpy as np
import pytest

from repro.core.flags import MemFlag
from repro.core.movement import IntelligentPageMovement, MovementConfig
from repro.core.replacement import PageReplacementPolicy
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.policies.base import PolicyContext
from repro.util.units import MiB

from conftest import CHUNK, make_pageset, small_specs


def setup(flags_map=None, config=None, **spec_kw):
    flags_map = flags_map or {}
    node = NodeMemorySystem(small_specs(**spec_kw), "n")
    ctx = PolicyContext(memory=node, rng=np.random.default_rng(0))
    owner_flags = lambda o: flags_map.get(o, MemFlag.NONE)
    replacement = PageReplacementPolicy(owner_flags)
    movement = IntelligentPageMovement(owner_flags, replacement, config)
    return node, ctx, movement


class TestConfig:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(Exception):
            MovementConfig(proactive_threshold=0.5, proactive_target=0.8)
        with pytest.raises(Exception):
            MovementConfig(high_watermark=0.5, low_watermark=0.8)


class TestSwapPromotion:
    def test_hot_swap_pages_promoted_first(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:4] = 1.0
        movement.tick(ctx, promote_budget_bytes=MiB(1))
        assert (ps.tier[:4] != int(SWAP)).all()
        node.validate()

    def test_promotion_counts_minor_faults(self):
        node, ctx, movement = setup()
        minors = []
        ctx.record_minor = lambda owner, n: minors.append(n)
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:2] = 1.0
        movement.tick(ctx, promote_budget_bytes=MiB(1))
        assert sum(minors) >= 2

    def test_budget_zero_promotes_nothing(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:] = 1.0
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(SWAP) == ps.total_bytes


class TestTierPromotion:
    def test_hot_cxl_pages_move_to_free_dram(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), CXL)
        ps.temperature[:4] = 1.0
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == {0, 1, 2, 3}

    def test_exchange_promotion_displaces_cold_dram(self):
        node, ctx, movement = setup()
        cold = make_pageset(node, "cold", MiB(4))  # fills DRAM
        node.place(cold, np.arange(cold.n_chunks), DRAM)
        cold.temperature[:] = 0.0
        hot = make_pageset(node, "hot", MiB(1))
        node.place(hot, np.arange(hot.n_chunks), CXL)
        hot.temperature[:] = 5.0  # above exchange threshold
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert hot.bytes_in(DRAM) > 0
        assert cold.bytes_in(DRAM) < MiB(4)
        node.validate()

    def test_lukewarm_pages_do_not_trigger_exchange(self):
        node, ctx, movement = setup(
            config=MovementConfig(promote_threshold=0.05, exchange_threshold=10.0)
        )
        cold = make_pageset(node, "cold", MiB(4))
        node.place(cold, np.arange(cold.n_chunks), DRAM)
        warm = make_pageset(node, "warm", MiB(1))
        node.place(warm, np.arange(warm.n_chunks), CXL)
        warm.temperature[:] = 1.0  # promotion-worthy but below exchange bar
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert warm.bytes_in(DRAM) == 0


@pytest.mark.requires_bit_exact
class TestPullUpPartialFill:
    """`_pull_up` fills DRAM→CXL→PMem in the caller's candidate order and
    reports exactly the chunks it moved.  These pin the exact path
    chunk-for-chunk, hence the marker: arena-fast's batched pull-up is
    held to the statistical contract instead."""

    def make_swapped(self, n_mib=4, **spec_kw):
        node, ctx, movement = setup(**spec_kw)
        ps = make_pageset(node, "a", MiB(n_mib))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        return node, ctx, movement, ps

    def test_spills_to_pmem_in_candidate_order(self):
        # DRAM and CXL hold 16 chunks each; the 64-chunk promotion set
        # must overflow the remainder into PMem, preserving order.
        node, ctx, movement, ps = self.make_swapped(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(8)
        )
        idx = np.arange(ps.n_chunks)
        moved = movement._pull_up(ctx, ps, idx)
        assert np.array_equal(moved, idx)  # everything fit somewhere
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == set(range(0, 16))
        assert set(np.flatnonzero(ps.tier == int(CXL))) == set(range(16, 32))
        assert set(np.flatnonzero(ps.tier == int(PMEM))) == set(range(32, 64))
        node.validate()

    def test_moved_subset_is_exact_when_all_tiers_fill(self):
        node, ctx, movement, ps = self.make_swapped(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(1)
        )
        idx = np.arange(ps.n_chunks)
        moved = movement._pull_up(ctx, ps, idx)
        # 48 chunks of room total: the moved array is exactly the first
        # 48 candidates, in order, and the tail stays swapped out.
        assert np.array_equal(moved, idx[:48])
        assert set(np.flatnonzero(ps.tier == int(SWAP))) == set(range(48, 64))
        node.validate()

    def test_candidate_order_wins_over_index_order(self):
        # The promotion loop hands `_pull_up` a hotness-ranked candidate
        # list; the fill must honor that ranking, not chunk index.
        node, ctx, movement, ps = self.make_swapped(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(8)
        )
        idx = np.arange(ps.n_chunks)[::-1].copy()  # hottest = highest index
        moved = movement._pull_up(ctx, ps, idx)
        assert np.array_equal(moved, idx)
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == set(range(48, 64))
        assert set(np.flatnonzero(ps.tier == int(CXL))) == set(range(32, 48))
        node.validate()

    def test_tick_spill_reaches_pmem_in_rank_order(self):
        # End-to-end: a swap-promotion tick whose hot set exceeds
        # DRAM+CXL room spills the coolest promoted chunks to PMem.
        # watermarks at 1.0 so the exactly-full DRAM this ends with does
        # not trip reactive replacement; temps sit between the promote
        # and exchange bars so pass 2 leaves the placement alone
        node, ctx, movement = setup(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(8),
            config=MovementConfig(
                high_watermark=1.0, low_watermark=1.0, exchange_threshold=0.95
            ),
        )
        ps = make_pageset(node, "a", MiB(4))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:] = np.linspace(0.9, 0.5, ps.n_chunks)
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == set(range(0, 16))
        assert set(np.flatnonzero(ps.tier == int(CXL))) == set(range(16, 32))
        assert set(np.flatnonzero(ps.tier == int(PMEM))) == set(range(32, 64))
        assert not (ps.tier == int(SWAP)).any()
        node.validate()


class TestProactiveSwap:
    def test_cold_unprotected_pages_move_to_cxl_with_shadows(self):
        node, ctx, movement = setup(
            config=MovementConfig(proactive_threshold=0.5, proactive_target=0.25)
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)  # 75% of DRAM
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(CXL) > 0
        assert ps.bytes_in(SWAP) == 0
        assert ps.in_page_cache.sum() > 0  # shadows kept in free DRAM
        node.validate()

    def test_latency_sensitive_owners_skipped(self):
        node, ctx, movement = setup(
            flags_map={"lat": MemFlag.LAT},
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.25, high_watermark=0.99
            ),
        )
        ps = make_pageset(node, "lat", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(DRAM) == MiB(3)

    def test_below_threshold_no_movement(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), DRAM)  # 25% of DRAM
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(DRAM) == MiB(1)

    def test_warm_pages_not_proactively_swapped(self):
        node, ctx, movement = setup(
            config=MovementConfig(proactive_threshold=0.5, proactive_target=0.25)
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        ps.temperature[:] = 1.0  # everything warm: nothing qualifies
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(CXL) == 0


class TestCompaction:
    def test_compaction_recorded_after_big_proactive_pass(self):
        node, ctx, movement = setup(
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.1,
                compaction_min_bytes=2 * CHUNK,
            )
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert node.stats.compactions >= 1

    def test_below_byte_threshold_no_compaction(self):
        node, ctx, movement = setup(
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.1,
                compaction_min_bytes=MiB(64),
            )
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert node.stats.compactions == 0

    def test_default_threshold_is_sixteen_default_chunks(self):
        from repro.memory.pageset import DEFAULT_CHUNK_SIZE

        assert MovementConfig().compaction_min_bytes == 16 * DEFAULT_CHUNK_SIZE
        assert MovementConfig(compaction_min_bytes=123456).compaction_min_bytes == 123456
        with pytest.raises(Exception):
            MovementConfig(compaction_min_bytes=0)

    def test_threshold_is_bytes_not_an_arbitrary_pagesets_chunks(self):
        """Mixed chunk sizes on one node: the trigger must compare bytes
        freed against bytes, not against `chunks * first-pageset-chunk`
        (which made the threshold depend on registration order)."""
        node, ctx, movement = setup(
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.1,
                compaction_min_bytes=MiB(2),
            )
        )
        # a tiny-chunk pageset registers first; the old trigger read ITS
        # chunk size, so `2 chunks` meant 2*16KiB even though the big
        # pageset does all the freeing
        tiny = make_pageset(node, "tiny", CHUNK, chunk_size=CHUNK // 4)
        node.place(tiny, np.arange(tiny.n_chunks), CXL)
        big = make_pageset(node, "big", MiB(3))
        node.place(big, np.arange(big.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert node.stats.compactions >= 1
        node.validate()
