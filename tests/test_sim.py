"""Tests for the performance model, design factory and experiment runner."""

import pytest

from repro.dramcache.components import (
    DirectMappedBlockTags,
    DramPageTags,
    SramPageTags,
)
from repro.dramcache.composed import ComposedDramCache
from repro.dramcache.stats import DramCacheStats
from repro.sim.executor import run_sweep, run_trial
from repro.sim.experiment import ExperimentConfig, ExperimentResult, ExperimentRunner
from repro.sim.factory import DESIGN_NAMES, make_design
from repro.sim.performance import PerformanceModel
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.workloads.cloudsuite import web_search
from repro.workloads.profile import WorkloadProfile


def synthetic_stats(hit_ratio: float, hit_latency: float, miss_latency: float,
                    accesses: int = 1000) -> DramCacheStats:
    stats = DramCacheStats()
    stats.hits = int(accesses * hit_ratio)
    stats.misses = accesses - stats.hits
    stats.total_hit_latency = int(stats.hits * hit_latency)
    stats.total_miss_latency = int(stats.misses * miss_latency)
    return stats


class TestPerformanceModel:
    def test_lower_latency_means_higher_ipc(self):
        model = PerformanceModel()
        profile = web_search()
        fast = model.estimate(synthetic_stats(0.95, 40, 160), profile)
        slow = model.estimate(synthetic_stats(0.50, 40, 160), profile)
        assert fast.user_ipc > slow.user_ipc

    def test_speedup_of_identical_stats_is_one(self):
        model = PerformanceModel()
        profile = web_search()
        stats = synthetic_stats(0.9, 40, 160)
        assert model.speedup(stats, stats, profile) == pytest.approx(1.0)

    def test_speedup_ordering_matches_latency(self):
        model = PerformanceModel()
        profile = web_search()
        baseline = model.offchip_baseline_stats(1000)
        good = model.speedup(synthetic_stats(0.95, 40, 160), baseline, profile)
        bad = model.speedup(synthetic_stats(0.50, 40, 160), baseline, profile)
        assert good > bad > 1.0

    def test_memory_bound_workload_more_sensitive(self):
        model = PerformanceModel()
        low_mpki = WorkloadProfile(name="low", working_set="1GB", l2_mpki=5.0)
        high_mpki = WorkloadProfile(name="high", working_set="1GB", l2_mpki=50.0)
        baseline = model.offchip_baseline_stats(1000)
        design = synthetic_stats(0.95, 40, 160)
        assert (model.speedup(design, baseline, high_mpki)
                > model.speedup(design, baseline, low_mpki))

    def test_memory_boundedness_fraction(self):
        model = PerformanceModel()
        estimate = model.estimate(synthetic_stats(0.9, 40, 160), web_search())
        assert 0.0 < estimate.memory_boundedness < 1.0

    def test_request_overhead_constant(self):
        model = PerformanceModel()
        assert model.request_overhead_cycles() == (
            model.config.interconnect_latency_cycles
            + model.config.l2.hit_latency_cycles
        )


class TestFactory:
    def test_all_names_constructible(self):
        for name in DESIGN_NAMES:
            design = make_design(name, "1GB", scale=1024)
            assert design.cache_stats.accesses == 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_design("missmap", "1GB")

    def test_scale_shrinks_capacity(self):
        big = make_design("unison", "1GB", scale=1)
        small = make_design("unison", "1GB", scale=256)
        assert isinstance(big, ComposedDramCache)
        assert isinstance(big.tags, DramPageTags)
        assert small.capacity_bytes < big.capacity_bytes

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            make_design("unison", "1GB", scale=0)

    def test_unison_variants(self):
        dm = make_design("unison-dm", "1GB", scale=1024)
        wide = make_design("unison-1984", "1GB", scale=1024)
        assert dm.tags.config.associativity == 1
        assert wide.tags.config.blocks_per_page == 31

    def test_footprint_tag_latency_uses_paper_capacity(self):
        small = make_design("footprint", "128MB", scale=64)
        large = make_design("footprint", "8GB", scale=64)
        assert isinstance(small.tags, SramPageTags)
        assert small.tags.tag_latency_cycles == 6
        assert large.tags.tag_latency_cycles == 48

    def test_unison_way_predictor_sized_by_paper_capacity(self):
        small = make_design("unison", "1GB", scale=256)
        large = make_design("unison", "8GB", scale=256)
        assert small.way_predictor.index_bits == 12
        assert large.way_predictor.index_bits == 16

    def test_alloy_has_miss_predictor(self):
        design = make_design("alloy", "1GB", scale=1024, num_cores=4)
        assert isinstance(design.tags, DirectMappedBlockTags)
        assert design.miss_predictor is not None


@pytest.fixture(scope="module")
def fast_runner():
    return ExperimentRunner(ExperimentConfig(scale=2048, num_accesses=12_000,
                                             num_cores=4, seed=3))


@pytest.fixture(scope="module")
def fast_profile():
    return web_search()


@pytest.fixture(scope="module")
def fast_comparison(fast_runner, fast_profile):
    """Unison and Alloy over the same Web Search trace, by design name."""
    results = run_sweep(SweepSpec(designs=("unison", "alloy"),
                                  workloads=(fast_profile,),
                                  capacities=("1GB",),
                                  config=fast_runner.config))
    return {result.design: result for result in results}


class TestExperimentRunner:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0)
        with pytest.raises(ValueError):
            ExperimentConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(num_accesses=0)

    def test_run_design_produces_result(self, fast_runner, fast_profile):
        result = run_trial(ExperimentSpec("unison", fast_profile, "1GB",
                                          config=fast_runner.config))
        assert isinstance(result, ExperimentResult)
        assert 0.0 <= result.miss_ratio <= 1.0
        assert result.miss_ratio_percent == pytest.approx(100 * result.miss_ratio)
        assert result.speedup_vs_no_cache > 0
        assert result.average_hit_latency > 0
        assert result.capacity == "1GB"
        assert result.workload == fast_profile.name

    def test_designs_in_one_sweep_share_the_trace(self, fast_comparison):
        assert set(fast_comparison) == {"unison", "alloy"}
        # 12000 accesses, two thirds of them warm-up.
        assert (fast_comparison["unison"].accesses_measured
                == fast_comparison["alloy"].accesses_measured == 4000)

    def test_page_based_beats_block_based_hit_ratio(self, fast_comparison):
        assert (fast_comparison["unison"].miss_ratio
                < fast_comparison["alloy"].miss_ratio)

    def test_capacity_sweep_miss_ratio_non_increasing_on_average(self, fast_runner,
                                                                 fast_profile):
        results = run_sweep(SweepSpec(designs=("unison",),
                                      workloads=(fast_profile,),
                                      capacities=("128MB", "1GB"),
                                      config=fast_runner.config))
        assert results[0].miss_ratio >= results[1].miss_ratio - 0.02

    def test_associativity_grid_shape(self, fast_runner, fast_profile):
        results = run_sweep(SweepSpec(
            designs=("unison",), workloads=(fast_profile,),
            capacities=("1GB",), config=fast_runner.config,
            overrides=({"associativity": 1}, {"associativity": 4}),
        ))
        assert results.designs == ("unison-dm", "unison")
        assert results[1].miss_ratio <= results[0].miss_ratio + 0.02

    def test_ideal_design_reports_zero_miss(self, fast_runner, fast_profile):
        result = run_trial(ExperimentSpec("ideal", fast_profile, "1GB",
                                          config=fast_runner.config))
        assert result.miss_ratio == 0.0
        assert result.speedup_vs_no_cache > 1.0
