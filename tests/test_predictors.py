"""Tests for the footprint, singleton, way and miss predictors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.footprint import FootprintPredictor
from repro.predictors.miss import MissPredictor
from repro.predictors.singleton import SingletonTable
from repro.predictors.way import WayPredictor


def mask(*offsets):
    return sum(1 << offset for offset in offsets)


class TestFootprintPredictor:
    def test_untrained_default_predicts_whole_page(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        footprint, from_history = predictor.predict_bits(pc=0x400000, offset=3)
        assert not from_history
        assert footprint == (1 << 15) - 1

    def test_untrained_default_single_block_mode(self):
        predictor = FootprintPredictor(blocks_per_page=15, default_all_blocks=False)
        footprint, from_history = predictor.predict_bits(pc=0x400000, offset=3)
        assert footprint == mask(3)
        assert not from_history

    def test_trained_prediction_returned(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        predictor.train(pc=0x400000, offset=2, footprint=mask(2, 3, 4))
        footprint, from_history = predictor.predict_bits(pc=0x400000, offset=2)
        assert from_history
        assert footprint == mask(2, 3, 4)

    def test_trigger_block_always_included(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        predictor.train(0x400000, 5, mask(1))
        footprint, _ = predictor.predict_bits(0x400000, 5)
        assert footprint & mask(5)

    def test_singleton_detection(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        predictor.train(0x400000, 7, mask(7))
        assert predictor.predict_bits(0x400000, 7) == (mask(7), True)

    def test_different_offsets_are_independent_keys(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        predictor.train(0x400000, 0, mask(0, 1))
        assert predictor.predict_bits(0x400000, 1)[1] is False

    def test_capacity_eviction_lru(self):
        predictor = FootprintPredictor(blocks_per_page=15, num_entries=4,
                                       associativity=4)
        # All keys that collide into the same (single) set; the oldest entry
        # should be displaced once a fifth is trained.
        for pc in range(5):
            predictor.train(pc, 0, mask(0))
        trained = sum(
            1 for pc in range(5) if predictor.predict_bits(pc, 0)[1]
        )
        assert trained <= 4

    def test_offset_out_of_range(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        with pytest.raises(ValueError):
            predictor.predict_bits(0, 15)

    def test_update_width_mismatch(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        with pytest.raises(ValueError):
            predictor.train(0, 0, mask(30))

    def test_outcome_accounting(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        predictor.account(mask(0, 1, 2, 3), mask(0, 1, 5), from_history=True)
        # 2 of 3 actual blocks predicted; 2 of 4 fetched blocks wasted.
        assert predictor.accuracy_ratio == pytest.approx(2 / 3)
        assert predictor.overfetch_ratio == pytest.approx(2 / 4)
        assert predictor.underpredicted_blocks == 1

    def test_cold_outcomes_separated_from_trained(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        predictor.account((1 << 15) - 1, mask(0), from_history=False)
        predictor.account(mask(0, 1), mask(0, 1), from_history=True)
        # Headline metrics reflect the trained prediction only.
        assert predictor.accuracy_ratio == pytest.approx(1.0)
        assert predictor.overfetch_ratio == pytest.approx(0.0)
        assert predictor.overall_overfetch_ratio > 0.5

    def test_reset_stats_keeps_training(self):
        predictor = FootprintPredictor(blocks_per_page=15)
        predictor.train(0x400000, 2, mask(2, 3))
        predictor.account((1 << 15) - 1, (1 << 15) - 1)
        predictor.reset_stats()
        assert predictor.fetched_blocks == 0
        assert predictor.predict_bits(0x400000, 2)[1]

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_trained_prediction_reproduces_footprint(self, data):
        predictor = FootprintPredictor(blocks_per_page=15)
        pc = data.draw(st.integers(0, 2 ** 40))
        offset = data.draw(st.integers(0, 14))
        indices = data.draw(st.lists(st.integers(0, 14), unique=True, min_size=1))
        predictor.train(pc, offset, mask(*indices))
        footprint, _ = predictor.predict_bits(pc, offset)
        assert footprint == mask(*indices) | mask(offset)


class TestSingletonTable:
    def test_insert_and_lookup(self):
        table = SingletonTable(num_entries=4, blocks_per_page=15)
        table.insert(page_number=10, trigger_pc=0x400000, trigger_offset=3)
        assert table.lookup(10) is not None
        assert table.lookup(11) is None

    def test_promotion_on_second_block(self):
        table = SingletonTable(num_entries=4, blocks_per_page=15)
        table.insert(10, 0x400000, 3)
        assert table.observe(10, 3) is None       # same block: still singleton
        correction = table.observe(10, 7)
        assert correction == (0x400000, 3, mask(3, 7))
        assert table.lookup(10) is None                 # removed after promotion

    def test_untracked_page_ignored(self):
        table = SingletonTable(num_entries=4, blocks_per_page=15)
        assert table.observe(99, 0) is None

    def test_lru_eviction(self):
        table = SingletonTable(num_entries=2, blocks_per_page=15)
        table.insert(1, 0, 0)
        table.insert(2, 0, 0)
        table.insert(3, 0, 0)
        assert table.lookup(1) is None
        assert table.evictions == 1
        assert table.occupancy == 2

    def test_remove(self):
        table = SingletonTable(num_entries=2, blocks_per_page=15)
        table.insert(1, 0, 0)
        assert table.remove(1)
        assert not table.remove(1)

    def test_invalid_offsets(self):
        table = SingletonTable(num_entries=2, blocks_per_page=15)
        with pytest.raises(ValueError):
            table.insert(1, 0, 15)
        table.insert(1, 0, 0)
        with pytest.raises(ValueError):
            table.observe(1, 20)

    def test_stats(self):
        table = SingletonTable(num_entries=2, blocks_per_page=15)
        table.insert(1, 0, 0)
        assert table.stats().get("insertions") == 1


class TestWayPredictor:
    def test_learns_single_mapping(self):
        predictor = WayPredictor(index_bits=12, associativity=4)
        predictor.update(page_address=100, actual_way=3)
        assert predictor.predict(100) == 3

    def test_record_tracks_accuracy(self):
        predictor = WayPredictor(index_bits=12, associativity=4)
        assert not predictor.record(200, 2)     # cold entry predicts way 0
        assert predictor.record(200, 2)         # trained now
        assert predictor.accuracy.value == pytest.approx(0.5)

    def test_repeated_page_accesses_predict_well(self):
        predictor = WayPredictor(index_bits=12, associativity=4)
        pages = [(page, page % 4) for page in range(64)]
        for _ in range(4):
            for page, way in pages:
                predictor.record(page, way)
        assert predictor.accuracy.value > 0.7

    def test_for_capacity_sizing_rule(self):
        small = WayPredictor.for_capacity(1 * 1024 ** 3)
        large = WayPredictor.for_capacity(8 * 1024 ** 3)
        assert small.index_bits == 12
        assert large.index_bits == 16
        # Table II: 1 KB (12-bit) up to 16 KB (16-bit) of storage.
        assert small.storage_bytes == 1024
        assert large.storage_bytes == 16 * 1024

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WayPredictor(index_bits=0)
        with pytest.raises(ValueError):
            WayPredictor(associativity=1)
        predictor = WayPredictor()
        with pytest.raises(ValueError):
            predictor.update(0, 7)

    def test_reset_stats_keeps_table(self):
        predictor = WayPredictor()
        predictor.record(5, 1)
        predictor.reset_stats()
        assert predictor.accuracy.denominator == 0
        assert predictor.predict(5) == 1


class TestMissPredictor:
    def test_learns_persistent_misses(self):
        predictor = MissPredictor(num_cores=1, entries_per_core=64)
        pc = 0x400100
        for _ in range(8):
            predictor.record(0, pc, was_miss=True)
        assert predictor.predict_miss(0, pc)

    def test_learns_persistent_hits(self):
        predictor = MissPredictor(num_cores=1, entries_per_core=64)
        pc = 0x400200
        for _ in range(8):
            predictor.record(0, pc, was_miss=False)
        assert not predictor.predict_miss(0, pc)

    def test_miss_identification_metric(self):
        predictor = MissPredictor(num_cores=1)
        pc = 0x400300
        for _ in range(10):
            predictor.record(0, pc, was_miss=True)
        # After warm-up nearly all misses are identified.
        assert predictor.miss_identification.value > 0.5

    def test_false_prediction_counters(self):
        predictor = MissPredictor(num_cores=1)
        pc = 0x400400
        for _ in range(8):
            predictor.record(0, pc, was_miss=True)
        predictor.record(0, pc, was_miss=False)     # a hit predicted as miss
        assert predictor.false_misses == 1

    def test_per_core_isolation(self):
        predictor = MissPredictor(num_cores=2, entries_per_core=64)
        pc = 0x400500
        for _ in range(8):
            predictor.record(0, pc, was_miss=True)
        assert predictor.predict_miss(0, pc)
        assert not predictor.predict_miss(1, pc)

    def test_storage_matches_table_ii(self):
        predictor = MissPredictor(num_cores=16, entries_per_core=256, counter_bits=3)
        assert predictor.storage_bytes_per_core == 96
        assert predictor.storage_bytes_total == 1536

    def test_invalid_core(self):
        predictor = MissPredictor(num_cores=2)
        with pytest.raises(ValueError):
            predictor.predict_miss(5, 0)
        with pytest.raises(ValueError):
            predictor.update(5, 0, True)

    def test_reset_stats_keeps_counters(self):
        predictor = MissPredictor(num_cores=1)
        pc = 0x400600
        for _ in range(8):
            predictor.record(0, pc, was_miss=True)
        predictor.reset_stats()
        assert predictor.predictions == 0
        assert predictor.predict_miss(0, pc)
