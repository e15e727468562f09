"""Integration tests: end-to-end flows across multiple subsystems.

These tests exercise the same paths the benchmark harness uses, at a much
smaller scale, and assert the *qualitative* relationships the paper's
evaluation is built on (who hits, who pays tag latency, who wastes bandwidth).
"""

import pytest

from repro.sim.executor import run_sweep, run_trial
from repro.sim.experiment import ExperimentConfig
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.workloads.cloudsuite import data_analytics, web_search

CONFIG = ExperimentConfig(scale=2048, num_accesses=16_000, num_cores=8,
                          seed=5)


def run(design, profile, capacity):
    return run_trial(ExperimentSpec(design, profile, capacity, config=CONFIG))


@pytest.fixture(scope="module")
def comparison():
    """All four designs over the same Web Search trace, by design name."""
    results = run_sweep(SweepSpec(
        designs=("unison", "alloy", "footprint", "ideal"),
        workloads=(web_search(),), capacities=("1GB",), config=CONFIG,
    ))
    return {result.design: result for result in results}


class TestDesignComparison:
    def test_miss_ratio_ordering(self, comparison):
        # Alloy (block-based) has by far the highest miss ratio; the
        # page-based designs exploit spatial locality (Figure 6).
        assert comparison["alloy"].miss_ratio > comparison["unison"].miss_ratio
        assert comparison["alloy"].miss_ratio > comparison["footprint"].miss_ratio
        assert comparison["ideal"].miss_ratio == 0.0

    def test_page_based_hit_rate_is_high(self, comparison):
        assert comparison["unison"].hit_ratio > 0.75
        assert comparison["footprint"].hit_ratio > 0.75

    def test_speedup_ordering(self, comparison):
        # Ideal >= Unison > Alloy, and every design beats no-DRAM-cache.
        assert comparison["ideal"].speedup_vs_no_cache >= comparison["unison"].speedup_vs_no_cache
        assert comparison["unison"].speedup_vs_no_cache > comparison["alloy"].speedup_vs_no_cache
        for result in comparison.values():
            assert result.speedup_vs_no_cache > 1.0

    def test_unison_hit_latency_close_to_alloy(self, comparison):
        # The overlapped tag+data read keeps Unison's hit latency within a few
        # cycles of Alloy's single TAD read (Section III-A).
        assert (comparison["unison"].average_hit_latency
                <= comparison["alloy"].average_hit_latency + 15)

    def test_footprint_pays_sram_tag_latency_on_hits(self, comparison):
        assert (comparison["footprint"].average_hit_latency
                >= comparison["unison"].average_hit_latency)

    def test_predictor_accuracies_in_plausible_ranges(self, comparison):
        assert comparison["unison"].way_prediction_accuracy > 0.85
        assert comparison["unison"].footprint_accuracy > 0.5
        assert comparison["alloy"].miss_prediction_accuracy > 0.5

    def test_bandwidth_efficiency(self, comparison):
        # Page-based designs fetch footprints, not whole pages: per-access
        # off-chip traffic stays within a small factor of the block-based one.
        assert comparison["unison"].offchip_blocks_per_access < 6.0
        assert comparison["alloy"].offchip_blocks_per_access < 3.0

    def test_row_activation_energy_proxy(self, comparison):
        # Unison performs off-chip transfers at footprint granularity, so it
        # needs fewer off-chip row activations per transferred block than the
        # block-at-a-time Alloy Cache (Section V-D).
        unison = comparison["unison"]
        alloy = comparison["alloy"]
        unison_blocks = max(1, unison.offchip_demand_blocks + unison.offchip_prefetch_blocks)
        alloy_blocks = max(1, alloy.offchip_demand_blocks + alloy.offchip_prefetch_blocks)
        assert (unison.offchip_row_activations / unison_blocks
                < alloy.offchip_row_activations / alloy_blocks)


class TestCapacityTrends:
    def test_larger_cache_never_much_worse(self):
        small = run("unison", data_analytics(), "128MB")
        large = run("unison", data_analytics(), "1GB")
        assert large.miss_ratio <= small.miss_ratio + 0.05

    def test_footprint_tag_latency_grows_with_capacity(self):
        small = run("footprint", web_search(), "128MB")
        large = run("footprint", web_search(), "8GB")
        assert large.average_hit_latency > small.average_hit_latency

    def test_unison_hit_latency_capacity_independent(self):
        small = run("unison", web_search(), "128MB")
        large = run("unison", web_search(), "8GB")
        assert abs(large.average_hit_latency - small.average_hit_latency) < 12
