"""Tests for the Alloy, Footprint, Ideal and NoCache baseline designs."""

import pytest

from repro.baselines.no_cache import NoDramCache
from repro.config.cache_configs import AlloyCacheConfig, FootprintCacheConfig
from repro.dramcache.components import (
    DirectMappedBlockTags,
    DisabledMissPrediction,
    FootprintFetch,
    SramPageTags,
)
from repro.dramcache.composed import ComposedDramCache
from repro.dramcache.spec import ComponentSpec, DesignSpec
from repro.predictors.footprint import FootprintPredictor
from repro.predictors.singleton import SingletonTable
from repro.sim.factory import make_design
from repro.sim.registry import DesignBuildContext
from repro.trace.record import AccessType, MemoryAccess

#: Simulated capacity of the small designs: 64 DRAM rows (512 KB).
SMALL = 64 * 8192


def read(block: int, pc: int = 0x400100, core: int = 0) -> MemoryAccess:
    return MemoryAccess(address=block * 64, pc=pc, core_id=core)


def write(block: int, pc: int = 0x400100, core: int = 0) -> MemoryAccess:
    return MemoryAccess(address=block * 64, pc=pc, core_id=core,
                        access_type=AccessType.WRITE)


class TestAlloyCache:
    def make(self) -> ComposedDramCache:
        return make_design("alloy", SMALL, num_cores=4)

    def make_without_miss_predictor(self) -> ComposedDramCache:
        # No spec parameter removes MAP-I from the Alloy organization, so
        # this one is assembled from its components.
        return ComposedDramCache(
            tags=DirectMappedBlockTags(AlloyCacheConfig(capacity=SMALL)),
            hit_predictor=DisabledMissPrediction(),
        )

    def test_miss_then_hit_same_block(self):
        cache = self.make()
        assert not cache.access(read(10)).hit
        assert cache.access(read(10)).hit

    def test_no_spatial_prefetch(self):
        cache = self.make()
        cache.access(read(100))
        # The neighbouring block is NOT brought in: block-based caches only
        # capture temporal reuse (Section II-A).
        assert not cache.access(read(101)).hit

    def test_direct_mapped_conflict(self):
        cache = self.make()
        conflicting = 5 + cache.tags.num_blocks
        cache.access(read(5))
        cache.access(read(conflicting))
        assert not cache.access(read(5)).hit

    def test_miss_fetches_exactly_one_block(self):
        cache = self.make()
        result = cache.access(read(42))
        assert result.offchip_blocks_fetched == 1
        assert cache.memory.blocks_read == 1

    def test_dirty_victim_written_back(self):
        cache = self.make()
        cache.access(write(7))
        cache.access(read(7 + cache.tags.num_blocks))
        assert cache.memory.blocks_written == 1

    def test_predicted_miss_bypasses_lookup_latency(self):
        cache = self.make()
        pc = 0x400900
        # Train the miss predictor with a stream of misses from one PC.
        for i in range(16):
            cache.access(read(1000 + i * cache.tags.num_blocks, pc=pc))
        trained_miss = cache.access(read(5000 + cache.tags.num_blocks * 3, pc=pc))
        # Compare against a fresh cache whose predictor predicts "hit".
        fresh = self.make_without_miss_predictor()
        unpredicted_miss = fresh.access(read(5000 + fresh.tags.num_blocks * 3, pc=pc))
        assert trained_miss.latency_cycles < unpredicted_miss.latency_cycles

    def test_false_miss_prediction_creates_extra_traffic(self):
        cache = self.make()
        pc = 0x400A00
        for i in range(16):
            cache.access(read(2000 + i * cache.tags.num_blocks, pc=pc))   # all misses
        # Now access a block that IS cached using the same (miss-biased) PC.
        cache.access(read(2000, pc=pc))
        hit = cache.access(read(2000, pc=pc))
        assert hit.hit
        assert cache.cache_stats.offchip_prefetch_blocks >= 1

    def test_miss_predictor_accuracy_reported(self):
        cache = self.make()
        for i in range(200):
            cache.access(read(i * 3, pc=0x400000 + (i % 8) * 4))
        assert 0.0 <= cache.miss_prediction_accuracy <= 1.0

    def test_without_miss_predictor(self):
        cache = self.make_without_miss_predictor()
        cache.access(read(1))
        assert cache.miss_predictor is None
        assert cache.miss_prediction_accuracy == 0.0


class TestFootprintCache:
    def make(self, associativity: int = 8) -> ComposedDramCache:
        spec = DesignSpec(
            name="footprint",
            tags=ComponentSpec("sram-page", {"associativity": associativity}),
            fetch=ComponentSpec("footprint"),
        )
        # Unscaled: the SRAM tag latency follows the simulated capacity.
        return spec.build(DesignBuildContext(
            paper_capacity_bytes=SMALL, scaled_capacity_bytes=SMALL,
            scale=1, num_cores=4))

    def make_with_tag_latency(self, cycles: int) -> ComposedDramCache:
        # The SRAM tag latency is derived from the capacity, never a spec
        # parameter, so a pinned latency is assembled from the components.
        tags = SramPageTags(
            FootprintCacheConfig(capacity=SMALL, associativity=8),
            tag_latency_cycles=cycles)
        blocks = tags.blocks_per_page
        return ComposedDramCache(
            tags=tags,
            fetch=FootprintFetch(
                FootprintPredictor(blocks_per_page=blocks),
                SingletonTable(blocks_per_page=blocks)),
        )

    def test_page_allocation_gives_spatial_hits(self):
        cache = self.make()
        cache.access(read(32 * 5 + 0))        # trigger miss for page 5
        for offset in range(1, 32):
            assert cache.access(read(32 * 5 + offset)).hit

    def test_tag_latency_added_to_every_access(self):
        fast = self.make_with_tag_latency(1)
        slow = self.make_with_tag_latency(48)
        # Warm the page and let the fill traffic drain before comparing hits.
        for offset in range(4):
            fast.access(read(offset))
            slow.access(read(offset))
        hit_fast = fast.access(read(4))
        hit_slow = slow.access(read(4))
        assert hit_fast.hit and hit_slow.hit
        assert hit_slow.latency_cycles - hit_fast.latency_cycles >= 40

    def test_default_tag_latency_follows_table_iv(self):
        cache = make_design("footprint", "1GB", scale=1024)
        assert cache.tags.tag_latency_cycles == 16

    def test_eviction_trains_footprint_predictor(self):
        cache = self.make()
        pc = 0x400700
        page = 3
        sets = cache.tags.num_sets
        for offset in (0, 1, 2):
            cache.access(read(32 * page + offset, pc=pc))
        for i in range(1, cache.tags.associativity + 1):
            cache.access(read(32 * (page + i * sets), pc=pc + 64))
        footprint, from_history = cache.footprint_predictor.predict_bits(pc, 0)
        assert from_history
        assert footprint == 0b111

    def test_singleton_bypass(self):
        cache = self.make()
        pc = 0x400800
        cache.footprint_predictor.train(pc, 9, 1 << 9)
        allocated = cache.cache_stats.pages_allocated
        result = cache.access(read(32 * 40 + 9, pc=pc))
        assert not result.hit
        assert cache.cache_stats.pages_allocated == allocated
        assert cache.cache_stats.singleton_bypasses == 1

    def test_dirty_blocks_written_back_on_eviction(self):
        cache = self.make(associativity=2)
        sets = cache.tags.num_sets
        cache.access(write(32 * 1))
        for i in range(1, 4):
            cache.access(read(32 * (1 + i * sets)))
        assert cache.memory.blocks_written >= 1

    def test_footprint_metrics_exposed(self):
        cache = self.make()
        for i in range(300):
            cache.access(read(i, pc=0x400000 + (i % 4) * 4))
        assert 0.0 <= cache.footprint_accuracy <= 1.0
        assert 0.0 <= cache.footprint_overfetch <= 1.0


class TestIdealCache:
    def test_every_access_hits(self):
        cache = make_design("ideal", "1GB")
        for i in range(100):
            assert cache.access(read(i * 17)).hit
        assert cache.cache_stats.miss_ratio == 0.0

    def test_no_offchip_traffic(self):
        cache = make_design("ideal", "1GB")
        for i in range(50):
            cache.access(read(i))
        assert cache.memory.blocks_transferred == 0

    def test_latency_is_one_stacked_access(self):
        cache = make_design("ideal", "1GB")
        result = cache.access(read(0))
        assert 20 <= result.latency_cycles <= 80


class TestNoDramCache:
    def test_every_access_misses_offchip(self):
        cache = NoDramCache()
        for i in range(20):
            assert not cache.access(read(i)).hit
        assert cache.cache_stats.miss_ratio == 1.0
        assert cache.memory.blocks_read == 20

    def test_writes_counted_as_writebacks(self):
        cache = NoDramCache()
        cache.access(write(3))
        assert cache.cache_stats.offchip_writeback_blocks == 1
        assert cache.memory.blocks_written == 1

    def test_latency_reflects_offchip_dram(self):
        cache = NoDramCache()
        result = cache.access(read(0))
        assert result.latency_cycles >= 80
