"""Tests for the main-memory and stacked-DRAM device wrappers."""

import pytest

from repro.mem.main_memory import MainMemory
from repro.mem.stacked import StackedDram


class TestMainMemory:
    def test_read_and_write_latencies_positive(self):
        memory = MainMemory()
        assert memory.read_block(10) > 0
        assert memory.write_block(11) > 0

    def test_traffic_counters(self):
        memory = MainMemory()
        memory.read_block(1)
        memory.write_block(2)
        memory.fetch_blocks([3, 4, 5])
        memory.write_blocks([6, 7])
        assert memory.blocks_read == 4
        assert memory.blocks_written == 3
        assert memory.blocks_transferred == 7

    def test_fetch_blocks_returns_critical_latency(self):
        memory = MainMemory()
        single = MainMemory().read_block(100)
        batch = memory.fetch_blocks([100, 101, 102, 103])
        # The critical (first) block determines the reported latency, so it is
        # in the same ballpark as a single read, not the sum of all blocks.
        assert batch < single * 3

    def test_fetch_blocks_empty(self):
        assert MainMemory().fetch_blocks([]) == 0

    def test_footprint_fetch_uses_few_activations(self):
        memory = MainMemory()
        # 8 contiguous blocks live in one DRAM row -> one activation.
        memory.fetch_blocks(list(range(8)))
        assert memory.row_activations == 1

    def test_scattered_fetch_uses_many_activations(self):
        memory = MainMemory()
        # One block per 8 KB row -> one activation per block.
        memory.fetch_blocks([i * 1024 for i in range(8)])
        assert memory.row_activations >= 2

    def test_stats_group(self):
        memory = MainMemory()
        memory.read_block(0)
        stats = memory.stats()
        assert stats.get("blocks_read") == 1
        assert stats.get("row_activations") >= 1


class TestStackedDram:
    def test_row_address_computation(self):
        stacked = StackedDram()
        assert stacked.row_address(0, 0) == 0
        assert stacked.row_address(1, 32) == 8192 + 32
        with pytest.raises(ValueError):
            stacked.row_address(0, 9000)

    def test_read_returns_access_result(self):
        stacked = StackedDram()
        latency = stacked.read(row_index=3, offset=0, num_bytes=32)
        assert isinstance(latency, int)
        assert latency > 0
        assert stacked.row_activations == 1

    def test_same_row_reads_hit_row_buffer(self):
        stacked = StackedDram()
        first = stacked.read(5, 0, 64, now_cpu=0)
        second = stacked.read(5, 1024, 64, now_cpu=500)
        assert sum(stacked.controller.row_hits) == 1
        assert second <= first

    def test_stats_group(self):
        stacked = StackedDram()
        stacked.read(0, 0, 32)
        stats = stacked.stats()
        assert stats.get("requests") == 1
        assert stats.get("bytes_transferred") == 32
