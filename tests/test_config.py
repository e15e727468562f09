"""Tests for the system and cache-design configurations (Tables II-IV)."""

import pytest

from repro.config.cache_configs import (
    AlloyCacheConfig,
    FootprintCacheConfig,
    UnisonCacheConfig,
    footprint_tag_array_for_capacity,
)
from repro.config.system import DramChannelConfig, SramCacheConfig, SystemConfig
from repro.utils.units import parse_size


class TestSystemConfig:
    def test_defaults_match_table_iii(self):
        config = SystemConfig()
        config.validate()
        assert config.num_cores == 16
        assert config.l2.size_bytes == 4 * 1024 ** 2
        assert config.l2.associativity == 16
        assert config.stacked_dram.num_channels == 4
        assert config.stacked_dram.bus_width_bits == 128
        assert config.stacked_dram.row_buffer_bytes == 8 * 1024
        assert config.offchip_dram.frequency_mhz == 800.0
        assert config.stacked_dram.t_cas == 11
        assert config.stacked_dram.t_rc == 39
        assert config.stacked_dram.t_faw == 24

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0).validate()

    def test_sram_cache_geometry(self):
        cache = SramCacheConfig(name="L2", size="4MB", associativity=16)
        cache.validate()
        assert cache.num_blocks == 65536
        assert cache.num_sets == 4096

    def test_sram_cache_bad_block_size(self):
        with pytest.raises(ValueError):
            SramCacheConfig(name="x", size="1KB", associativity=1,
                            block_size=48).validate()

    def test_sram_cache_indivisible_assoc(self):
        with pytest.raises(ValueError):
            SramCacheConfig(name="x", size="1KB", associativity=3).validate()

    def test_dram_channel_transfer_cycles(self):
        channel = SystemConfig().stacked_dram
        # 128-bit DDR bus moves 32 bytes per cycle.
        assert channel.transfer_cycles(64) == 2
        assert channel.transfer_cycles(32) == 1
        assert channel.transfer_cycles(0) == 0

    def test_dram_channel_validation(self):
        with pytest.raises(ValueError):
            DramChannelConfig(name="bad", frequency_mhz=800, num_channels=0,
                              banks_per_rank=8, row_buffer_bytes=8192,
                              bus_width_bits=64).validate()


class TestUnisonCacheConfig:
    def test_default_organization_matches_paper(self):
        config = UnisonCacheConfig(capacity="1GB")
        config.validate()
        assert config.page_data_bytes == 960
        assert config.page_total_bytes == 968
        assert config.pages_per_row == 8
        assert config.sets_per_row == 2
        # Table II: 120-124 blocks per 8KB row; the 960B point gives 120.
        assert config.data_blocks_per_row == 120
        assert config.num_sets == (parse_size("1GB") // 8192) * 2

    def test_1984_byte_pages(self):
        config = UnisonCacheConfig(capacity="1GB", blocks_per_page=31)
        config.validate()
        assert config.page_data_bytes == 1984
        assert config.pages_per_row == 4
        assert config.data_blocks_per_row == 124

    def test_in_dram_tag_fraction_within_table_ii_range(self):
        config = UnisonCacheConfig(capacity="8GB")
        # Table II: 3.1% - 6.2% of DRAM spent on tags/overhead.
        assert 0.02 <= config.in_dram_tag_fraction <= 0.07

    def test_way_predictor_storage(self):
        config = UnisonCacheConfig(capacity="1GB")
        assert config.way_predictor_bytes == 1024

    def test_32_way_sets_span_rows(self):
        config = UnisonCacheConfig(capacity=64 * 8192, associativity=32)
        config.validate()
        assert config.sets_per_row == 0
        assert config.num_sets == config.num_pages // 32

    def test_capacity_must_be_whole_rows(self):
        with pytest.raises(ValueError):
            UnisonCacheConfig(capacity=8192 + 1).validate()

    def test_page_bigger_than_row_rejected(self):
        with pytest.raises(ValueError):
            UnisonCacheConfig(capacity="1GB", blocks_per_page=255).validate()


class TestAlloyCacheConfig:
    def test_default_organization_matches_paper(self):
        config = AlloyCacheConfig(capacity="1GB")
        config.validate()
        assert config.tad_bytes == 72
        # Table II / Section IV-C.3: 112 blocks per 8KB row.
        assert config.blocks_per_row == 112

    def test_in_dram_tag_overhead_is_an_eighth(self):
        config = AlloyCacheConfig(capacity="8GB")
        # Table II: in-DRAM tag size at 8GB is ~1GB (12.5% of capacity).
        assert config.in_dram_tag_bytes == pytest.approx(
            config.capacity_bytes / 9, rel=0.02
        )

    def test_capacity_must_be_whole_rows(self):
        with pytest.raises(ValueError):
            AlloyCacheConfig(capacity=100).validate()


class TestFootprintCacheConfig:
    def test_default_organization_matches_paper(self):
        config = FootprintCacheConfig(capacity="1GB")
        config.validate()
        assert config.blocks_per_page == 32
        assert config.blocks_per_row == 128
        assert config.num_pages == parse_size("1GB") // 2048

    def test_page_not_multiple_of_block_rejected(self):
        with pytest.raises(ValueError):
            FootprintCacheConfig(page_size=1000).validate()


class TestFootprintTagArray:
    @pytest.mark.parametrize("capacity,tag_mb,latency", [
        ("128MB", 0.8, 6),
        ("256MB", 1.58, 9),
        ("512MB", 3.12, 11),
        ("1GB", 6.2, 16),
        ("2GB", 12.5, 25),
        ("4GB", 25.0, 36),
        ("8GB", 50.0, 48),
    ])
    def test_table_iv_values(self, capacity, tag_mb, latency):
        model = footprint_tag_array_for_capacity(capacity)
        assert model.tag_megabytes == pytest.approx(tag_mb, rel=1e-6)
        assert model.lookup_latency_cycles == latency

    def test_interpolated_capacity(self):
        model = footprint_tag_array_for_capacity(parse_size("768MB"))
        assert 11 <= model.lookup_latency_cycles <= 16
        assert 3 * 1024 ** 2 < model.tag_bytes < 7 * 1024 ** 2

    def test_latency_monotonic_in_capacity(self):
        capacities = ["128MB", "256MB", "512MB", "1GB", "2GB", "4GB", "8GB"]
        latencies = [footprint_tag_array_for_capacity(c).lookup_latency_cycles
                     for c in capacities]
        assert latencies == sorted(latencies)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            footprint_tag_array_for_capacity(0)
