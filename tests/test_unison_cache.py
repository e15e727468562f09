"""Functional and behavioural tests for the Unison Cache model."""

import pytest

from repro.dramcache.composed import ComposedDramCache
from repro.sim.factory import make_design
from repro.trace.record import AccessType, MemoryAccess


def make_cache(associativity: int = 4) -> ComposedDramCache:
    """A Unison Cache of 64 DRAM rows (512 KB), simulated unscaled."""
    return make_design("unison", 64 * 8192, associativity=associativity)


def access_for(cache: ComposedDramCache, page: int, offset: int,
               pc: int = 0x400100, write: bool = False,
               core: int = 0) -> MemoryAccess:
    """Build a request that lands on (page, offset) of the cache's mapping."""
    block = page * cache.tags.config.blocks_per_page + offset
    return MemoryAccess(
        address=block * 64,
        pc=pc,
        access_type=AccessType.WRITE if write else AccessType.READ,
        core_id=core,
    )


class TestBasicHitMiss:
    def test_first_access_is_trigger_miss(self):
        cache = make_cache()
        result = cache.access(access_for(cache, page=3, offset=2))
        assert not result.hit
        assert cache.cache_stats.misses == 1
        assert cache.cache_stats.pages_allocated == 1

    def test_footprint_fetch_makes_whole_page_hit(self):
        cache = make_cache()
        cache.access(access_for(cache, page=3, offset=0))     # cold: fetch-all default
        for offset in range(1, 15):
            result = cache.access(access_for(cache, page=3, offset=offset))
            assert result.hit
        assert cache.cache_stats.hits == 14

    def test_hit_latency_below_miss_latency(self):
        cache = make_cache()
        miss = cache.access(access_for(cache, page=5, offset=1))
        hit = cache.access(access_for(cache, page=5, offset=2))
        assert hit.hit and not miss.hit
        assert hit.latency_cycles < miss.latency_cycles

    def test_hit_includes_tag_burst_overhead(self):
        cache = make_cache()
        cache.access(access_for(cache, page=9, offset=0))
        hit = cache.access(access_for(cache, page=9, offset=1))
        assert hit.latency_cycles >= cache.tags.config.tag_read_overhead_cycles

    def test_trigger_miss_fetches_footprint_from_memory(self):
        cache = make_cache()
        result = cache.access(access_for(cache, page=7, offset=0))
        # Cold default prediction fetches the whole 15-block page.
        assert result.offchip_blocks_fetched == 15
        assert cache.memory.blocks_read == 15

    def test_writes_mark_dirty_and_write_back_on_eviction(self):
        cache = make_cache()
        sets = cache.tags.config.num_sets
        victim_page = sets * 10          # maps to set 0
        cache.access(access_for(cache, page=victim_page, offset=0, write=True))
        # Fill set 0 with other pages until the dirty page is evicted.
        for i in range(1, cache.tags.config.associativity + 1):
            cache.access(access_for(cache, page=victim_page + i * sets, offset=0))
        assert cache.memory.blocks_written > 0
        assert cache.cache_stats.offchip_writeback_blocks > 0


class TestFootprintLearning:
    def test_eviction_trains_predictor(self):
        cache = make_cache()
        sets = cache.tags.config.num_sets
        pc = 0x400200
        page = 11
        # Touch only three blocks of the page, then evict it.
        for offset in (2, 3, 4):
            cache.access(access_for(cache, page=page, offset=offset, pc=pc))
        for i in range(1, cache.tags.config.associativity + 1):
            cache.access(access_for(cache, page=page + i * sets, offset=0))
        footprint, from_history = cache.footprint_predictor.predict_bits(pc, 2)
        assert from_history
        assert footprint == 0b11100

    def test_underprediction_fetches_single_block(self):
        cache = make_cache()
        sets = cache.tags.config.num_sets
        pc = 0x400300
        page = 13
        # Train the predictor that this PC touches only block 0.
        cache.access(access_for(cache, page=page, offset=0, pc=pc))
        for i in range(1, cache.tags.config.associativity + 1):
            cache.access(access_for(cache, page=page + i * sets, offset=0))
        # Re-allocate via the trained (non-singleton-aware) PC at offset 0 and
        # then demand an unpredicted block: that is an underprediction miss.
        other_pc = 0x400400
        cache.access(access_for(cache, page=page, offset=0, pc=other_pc))
        before = cache.cache_stats.underprediction_misses
        before_fetched = cache.memory.blocks_read
        result = cache.access(access_for(cache, page=page, offset=9, pc=other_pc))
        if not result.hit:
            assert cache.cache_stats.underprediction_misses == before + 1
            assert cache.memory.blocks_read == before_fetched + 1

    def test_singleton_bypass_does_not_allocate(self):
        cache = make_cache()
        pc = 0x400500
        sets = cache.tags.config.num_sets
        page = 17
        # Train a singleton footprint for (pc, offset 4).
        cache.footprint_predictor.train(pc, 4, 1 << 4)
        allocated_before = cache.cache_stats.pages_allocated
        result = cache.access(access_for(cache, page=page, offset=4, pc=pc))
        assert not result.hit
        assert cache.cache_stats.singleton_bypasses == 1
        assert cache.cache_stats.pages_allocated == allocated_before
        assert result.offchip_blocks_fetched == 1

    def test_singleton_promotion_corrects_predictor(self):
        cache = make_cache()
        pc = 0x400600
        page = 19
        cache.footprint_predictor.train(pc, 4, 1 << 4)
        cache.access(access_for(cache, page=page, offset=4, pc=pc))
        # A second block of the "singleton" page arrives: the singleton table
        # must correct the history entry to a multi-block footprint.
        cache.access(access_for(cache, page=page, offset=6, pc=pc))
        footprint, _ = cache.footprint_predictor.predict_bits(pc, 4)
        assert footprint.bit_count() >= 2


class TestAssociativityAndWayPrediction:
    def test_set_associativity_avoids_direct_mapped_conflicts(self):
        four_way = make_cache(associativity=4)
        direct = make_cache(associativity=1)
        sets_dm = direct.tags.config.num_sets
        # Two pages that conflict in the direct-mapped cache.
        a, b = 1, 1 + sets_dm
        for cache in (four_way, direct):
            for _ in range(4):
                cache.access(access_for(cache, page=a, offset=0))
                cache.access(access_for(cache, page=b, offset=0))
        assert four_way.cache_stats.misses <= direct.cache_stats.misses

    def test_way_predictor_trains_on_repeated_access(self):
        cache = make_cache()
        for _ in range(6):
            cache.access(access_for(cache, page=23, offset=1))
        assert cache.way_prediction_accuracy > 0.5

    def test_direct_mapped_has_no_way_predictor(self):
        cache = make_cache(associativity=1)
        assert cache.way_predictor is None
        assert cache.way_prediction_accuracy == 1.0

    def test_32_way_configuration_runs(self):
        cache = make_cache(associativity=32)
        for page in range(40):
            cache.access(access_for(cache, page=page, offset=0))
        assert cache.cache_stats.accesses == 40


class TestStatsAndBookkeeping:
    def test_stats_group_contains_predictor_sections(self):
        cache = make_cache()
        cache.access(access_for(cache, page=1, offset=0))
        keys = cache.stats().as_dict()
        assert any(k.startswith("footprint_predictor.") for k in keys)
        assert any(k.startswith("way_predictor.") for k in keys)
        assert any(k.startswith("singleton_table.") for k in keys)

    def test_reset_stats_preserves_contents(self):
        cache = make_cache()
        cache.access(access_for(cache, page=2, offset=0))
        cache.reset_stats()
        assert cache.cache_stats.accesses == 0
        assert cache.access(access_for(cache, page=2, offset=3)).hit

    def test_capacity_bounded_page_count(self):
        cache = make_cache()
        for page in range(cache.tags.config.num_pages * 2):
            cache.access(access_for(cache, page=page, offset=0))
        resident = sum(cache.tags.valid)
        assert resident <= cache.tags.config.num_pages

    def test_stacked_dram_sees_traffic(self):
        cache = make_cache()
        cache.access(access_for(cache, page=1, offset=0))
        cache.access(access_for(cache, page=1, offset=1))
        assert cache.stacked.bytes_transferred > 0
        assert cache.stacked.row_activations > 0
