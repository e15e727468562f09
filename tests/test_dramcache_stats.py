"""Tests for the shared DRAM-cache statistics record and base-class behaviour."""

import pytest

from repro.baselines.no_cache import NoDramCache
from repro.dramcache.stats import DramCacheStats
from repro.trace.record import MemoryAccess


class TestDramCacheStats:
    def test_empty_ratios_are_zero(self):
        stats = DramCacheStats()
        assert stats.miss_ratio == 0.0
        assert stats.hit_ratio == 0.0
        assert stats.average_access_latency == 0.0
        assert stats.offchip_blocks_per_access == 0.0

    def test_hit_miss_accounting(self):
        stats = DramCacheStats()
        stats.record_hit(40, is_write=False)
        stats.record_hit(60, is_write=True)
        stats.record_miss(200, is_write=False)
        assert stats.accesses == 3
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.miss_ratio == pytest.approx(1 / 3)
        assert stats.average_hit_latency == pytest.approx(50.0)
        assert stats.average_miss_latency == pytest.approx(200.0)
        assert stats.average_access_latency == pytest.approx(100.0)
        assert stats.read_accesses == 2
        assert stats.write_accesses == 1

    def test_offchip_traffic_totals(self):
        stats = DramCacheStats()
        stats.offchip_demand_blocks = 5
        stats.offchip_prefetch_blocks = 10
        stats.offchip_writeback_blocks = 3
        stats.record_miss(100, False)
        assert stats.offchip_total_blocks == 18
        assert stats.offchip_blocks_per_access == 18.0

    def test_reset_clears_everything(self):
        stats = DramCacheStats(name="x")
        stats.record_hit(10, False)
        stats.offchip_demand_blocks = 7
        stats.extra["row_hits"] = 3
        stats.reset()
        assert stats.accesses == 0
        assert stats.offchip_demand_blocks == 0
        assert stats.extra["row_hits"] == 0
        assert stats.name == "x"

    def test_stats_group_flattening(self):
        stats = DramCacheStats(name="unison")
        stats.record_hit(10, False)
        stats.extra["foo"] = 1
        group = stats.stats()
        assert group.get("hits") == 1
        assert group.get("extra.foo") == 1
        assert group.name == "unison"


class TestBaseModelBehaviour:
    def test_run_and_warm_up(self):
        design = NoDramCache()
        trace = [MemoryAccess(address=i * 64, pc=0x400000) for i in range(50)]
        design.warm_up(trace[:30])
        assert design.cache_stats.accesses == 0      # warm-up stats discarded
        stats = design.run(trace[30:])
        assert stats.accesses == 20

    def test_invalid_capacity_rejected(self):
        from repro.dramcache.components import AlwaysHitTags
        from repro.dramcache.composed import ComposedDramCache

        with pytest.raises(ValueError):
            ComposedDramCache(tags=AlwaysHitTags(0))

    def test_describe_mentions_capacity(self):
        from repro.sim.factory import make_design

        assert make_design("ideal", "1GB").describe() == "ideal(1GB)"

    def test_closed_loop_clock_advances(self):
        design = NoDramCache()
        design.access(MemoryAccess(address=0, pc=0))
        first_now = design._now
        design.access(MemoryAccess(address=64, pc=0))
        assert design._now > first_now

    def test_stats_include_device_groups(self):
        design = NoDramCache()
        design.access(MemoryAccess(address=0, pc=0))
        group = design.stats()
        assert any(key.startswith("main_memory.") for key in group.as_dict())
        assert any(key.startswith("no_cache.") for key in group.as_dict())
