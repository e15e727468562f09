"""Tests for the Loh-Hill baseline (extension beyond the paper's three designs)."""

import pytest

from repro.dramcache.components import MissMapBlockTags
from repro.dramcache.composed import ComposedDramCache
from repro.sim.factory import make_design
from repro.trace.record import AccessType, MemoryAccess


def read(block: int, pc: int = 0x400100) -> MemoryAccess:
    return MemoryAccess(address=block * 64, pc=pc)


def write(block: int) -> MemoryAccess:
    return MemoryAccess(address=block * 64, pc=0x400100,
                        access_type=AccessType.WRITE)


@pytest.fixture
def cache() -> ComposedDramCache:
    return make_design("loh_hill", 64 * 8192)


class TestOrganization:
    def test_set_per_row_geometry(self, cache):
        # An 8KB row holds 128 block slots; 11 hold tags, 117 hold data.
        assert cache.tags.tag_blocks_per_row == 11
        assert cache.tags.associativity == 117
        assert cache.tags.num_sets == 64

    def test_original_2kb_row_organization(self):
        # The original Loh-Hill design: 2KB rows -> 3 tag blocks + 29 ways.
        tags = MissMapBlockTags(64 * 2048, row_buffer_size=2048)
        assert tags.tag_blocks_per_row == 3
        assert tags.associativity == 29

    def test_invalid_row_size(self):
        with pytest.raises(ValueError):
            MissMapBlockTags(64 * 8192, row_buffer_size=1000)

    def test_capacity_too_small(self):
        with pytest.raises(ValueError):
            MissMapBlockTags(1024)


class TestBehaviour:
    def test_miss_then_hit(self, cache):
        assert not cache.access(read(5)).hit
        assert cache.access(read(5)).hit

    def test_missmap_bypasses_lookup_on_misses(self, cache):
        # A miss goes straight to memory: only the MissMap latency plus the
        # off-chip access, with no stacked-DRAM tag read.
        before = cache.stacked.controller.total_requests
        result = cache.access(read(77))
        assert not result.hit
        # The install writes the tag block and data block, but no tag *read*
        # happened before the off-chip request was issued.
        assert cache.stacked.controller.total_requests >= before

    def test_hit_pays_serialized_tag_then_data(self, cache):
        alloy = make_design("alloy", 64 * 8192, num_cores=4)
        cache.access(read(9))
        alloy.access(read(9))
        lh_hit = cache.access(read(9))
        alloy_hit = alloy.access(read(9))
        # Tag-then-data serialization makes the Loh-Hill hit clearly slower
        # than Alloy's single TAD read (the motivation for Alloy Cache).
        assert lh_hit.latency_cycles > alloy_hit.latency_cycles + 10

    def test_set_associativity_within_row(self, cache):
        # Many blocks mapping to the same set coexist (29-way associativity).
        conflicting = [5 + i * cache.tags.num_sets for i in range(10)]
        for block in conflicting:
            cache.access(read(block))
        hits = sum(cache.access(read(block)).hit for block in conflicting)
        assert hits == len(conflicting)

    def test_eviction_and_dirty_writeback(self, cache):
        victim = 3
        cache.access(write(victim))
        # Overflow the set so the dirty victim is evicted.
        for i in range(1, cache.tags.associativity + 2):
            cache.access(read(victim + i * cache.tags.num_sets))
        assert cache.memory.blocks_written >= 1
        assert cache.cache_stats.pages_evicted >= 1

    def test_missmap_tracked_in_stats(self, cache):
        cache.access(read(1))
        assert cache.stats().get("missmap_entries") == 1

    def test_factory_constructs_loh_hill(self):
        design = make_design("loh_hill", "1GB", scale=1024)
        assert isinstance(design.tags, MissMapBlockTags)
        assert design.tags.num_sets == 128  # 1MB of 8KB set-per-row rows
        assert design.cache_stats.accesses == 0
