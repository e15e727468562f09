"""Tests for window planning, the windowed sampler, and sweep wiring."""

from dataclasses import replace

import pytest

from repro.sampling import SamplingConfig, WindowedSampler, plan_windows
from repro.sampling.windows import PLACEMENT_RANDOM, PLACEMENT_SYSTEMATIC
from repro.sim.executor import run_sweep, run_trial
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.sim.resultset import ResultSet
from repro.sim.spec import ExperimentSpec, SweepSpec


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(scale=4096, num_accesses=24_000, num_cores=4,
                            seed=5)


@pytest.fixture(scope="module")
def fast_sampling():
    return SamplingConfig(window_accesses=1_000, warmup_accesses=1_000,
                          checkpoint_accesses=4_000, min_windows=3,
                          max_windows=6)


class TestSamplingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(window_accesses=0)
        with pytest.raises(ValueError):
            SamplingConfig(min_windows=5, max_windows=4)
        with pytest.raises(ValueError):
            SamplingConfig(placement="haphazard")
        with pytest.raises(ValueError):
            SamplingConfig(target_relative_error=0.0)

    def test_hashable_and_frozen(self):
        config = SamplingConfig()
        assert hash(config) == hash(SamplingConfig())
        with pytest.raises(AttributeError):
            config.seed = 3


class TestPlanWindows:
    def test_systematic_spans_region_without_overlap(self):
        config = SamplingConfig(window_accesses=1_000, warmup_accesses=500,
                                checkpoint_accesses=5_000, max_windows=10)
        plan = plan_windows(90_000, 2.0 / 3.0, config)
        region_start = 60_000
        assert plan.checkpoint_stop == region_start
        assert plan.checkpoint_start == region_start - 5_000
        assert len(plan.windows) == 10
        assert plan.windows[0].start == region_start
        assert plan.windows[-1].stop == 90_000
        for earlier, later in zip(plan.windows, plan.windows[1:]):
            assert earlier.stop <= later.start  # non-overlapping
        for window in plan.windows:
            assert window.warmup_start >= plan.checkpoint_stop
            assert window.warmup_start <= window.start

    def test_random_placement_is_seeded(self):
        config = SamplingConfig(placement=PLACEMENT_RANDOM, seed=7,
                                max_windows=8)
        one = plan_windows(100_000, 0.5, config)
        two = plan_windows(100_000, 0.5, config)
        assert one == two
        other = plan_windows(
            100_000, 0.5,
            SamplingConfig(placement=PLACEMENT_RANDOM, seed=8, max_windows=8),
        )
        assert one.windows != other.windows

    def test_random_placement_stays_in_region(self):
        config = SamplingConfig(placement=PLACEMENT_RANDOM, seed=3,
                                window_accesses=2_000, max_windows=12)
        plan = plan_windows(120_000, 2.0 / 3.0, config)
        for window in plan.windows:
            assert 80_000 <= window.start
            assert window.stop <= 120_000

    def test_measurement_order_is_shuffled_and_deterministic(self):
        config = SamplingConfig(max_windows=20)
        plan = plan_windows(500_000, 2.0 / 3.0, config)
        assert sorted(plan.order) == list(range(len(plan.windows)))
        assert plan.order == plan_windows(500_000, 2.0 / 3.0, config).order
        assert plan.order != tuple(range(len(plan.windows)))

    def test_degenerate_small_trace_collapses_to_one_window(self):
        config = SamplingConfig(window_accesses=50_000)
        plan = plan_windows(3_000, 2.0 / 3.0, config)
        assert len(plan.windows) == 1
        assert plan.windows[0].start == 2_000
        assert plan.windows[0].stop == 3_000

    def test_simulated_accesses_accounting(self):
        config = SamplingConfig(window_accesses=1_000, warmup_accesses=500,
                                checkpoint_accesses=4_000, max_windows=5)
        plan = plan_windows(60_000, 2.0 / 3.0, config)
        per_window = [plan.windows[i].simulated_accesses for i in plan.order]
        assert plan.simulated_accesses(0) == 4_000
        assert plan.simulated_accesses(2) == 4_000 + sum(per_window[:2])
        assert plan.sampled_fraction(len(plan.windows)) < 1.0


class TestWindowedSampler:
    def test_deterministic(self, fast_config, fast_sampling, tiny_profile):
        sampler = WindowedSampler(fast_sampling, config=fast_config)
        one = sampler.compare(["unison"], tiny_profile, "1GB")
        two = sampler.compare(["unison"], tiny_profile, "1GB")
        assert one.results()[0] == two.results()[0]
        assert one.measured == two.measured

    def test_matched_windows_across_designs(self, fast_config, fast_sampling,
                                            tiny_profile):
        run = WindowedSampler(fast_sampling, config=fast_config).compare(
            ["unison", "alloy"], tiny_profile, "1GB")
        unison = run.designs["unison"].series["miss_ratio"]
        alloy = run.designs["alloy"].series["miss_ratio"]
        assert unison.indices() == alloy.indices()
        delta = run.delta("speedup_vs_no_cache", "unison", "alloy")
        assert len(delta) == run.windows_measured

    def test_sampled_fraction_below_one(self, fast_config, fast_sampling,
                                        tiny_profile):
        run = WindowedSampler(fast_sampling, config=fast_config).compare(
            ["unison"], tiny_profile, "1GB")
        assert 0.0 < run.sampled_fraction < 1.0
        assert run.results()[0].extra["sampling_fraction"] == run.sampled_fraction

    def test_zero_variance_stops_at_min_windows(self, fast_config,
                                                tiny_profile):
        """no_cache misses every access and its speedup against itself is
        exactly 1.0, so both tracked series are constant and the adaptive
        stopper must terminate at min_windows."""
        sampling = SamplingConfig(window_accesses=500, warmup_accesses=500,
                                  checkpoint_accesses=2_000, min_windows=2,
                                  max_windows=8)
        run = WindowedSampler(sampling, config=fast_config).compare(
            ["no_cache"], tiny_profile, "1GB")
        assert run.windows_measured == 2
        assert run.converged

    def test_sampled_agrees_loosely_with_full_replay(self, fast_config,
                                                     tiny_profile):
        """Sanity at unit-test scale: the sampled estimate must land in the
        right neighbourhood of the full replay (tight agreement is the
        benchmark suite's job)."""
        trace = ExperimentRunner(fast_config).build_trace(tiny_profile)
        full = run_trial(ExperimentSpec("unison", tiny_profile, "1GB",
                                        config=fast_config))
        sampling = SamplingConfig(window_accesses=2_000,
                                  warmup_accesses=1_000,
                                  checkpoint_accesses=6_000,
                                  min_windows=4, max_windows=4)
        sampled = WindowedSampler(sampling, config=fast_config).run_design(
            "unison", tiny_profile, "1GB", trace=trace)
        assert abs(sampled.miss_ratio - full.miss_ratio) < 0.1
        assert abs(sampled.speedup_vs_no_cache - full.speedup_vs_no_cache) \
            < 0.15 * full.speedup_vs_no_cache

    @pytest.mark.parametrize("stored", ["raw", "gzip", "text"])
    def test_binary_trace_file_windows_seekably(self, fast_config,
                                                fast_sampling, tiny_profile,
                                                tmp_path, stored):
        """A trace file gives the same answer however it is stored.

        The file holds more accesses than the run reads, so every path
        also truncates it to ``num_accesses``.
        """
        from repro.engine.trace_array import array_to_records
        from repro.trace.binfmt import write_trace_bin
        from repro.trace.io import write_trace
        from repro.workloads.tracefile import TraceFileWorkload

        trace = ExperimentRunner(fast_config).build_trace(tiny_profile)
        config = replace(fast_config, num_accesses=20_000)
        injected = trace[:config.num_accesses]
        if stored == "text":
            path = tmp_path / "w.trace"
            write_trace(path, array_to_records(trace))
        else:
            path = tmp_path / "w.rptr"
            write_trace_bin(path, trace, num_cores=4,
                            codec="none" if stored == "raw" else "gzip")
        workload = TraceFileWorkload(path=str(path))

        full = run_sweep(SweepSpec(designs=("unison",),
                                   workloads=(f"trace:{path}",),
                                   capacities=("1GB",), config=config))
        assert list(full) == [WindowedSampler(None, config=config).run_design(
            "unison", workload, "1GB", trace=injected)]

        sampler = WindowedSampler(fast_sampling, config=config)
        from_file = sampler.compare(["unison"], workload, "1GB")
        in_memory = sampler.compare(["unison"], workload, "1GB",
                                    trace=injected)
        assert from_file.results() == in_memory.results()

    def test_label_and_duplicate_validation(self, fast_config, fast_sampling,
                                            tiny_profile):
        sampler = WindowedSampler(fast_sampling, config=fast_config)
        with pytest.raises(ValueError, match="duplicate"):
            sampler.compare(["unison", "unison"], tiny_profile, "1GB")
        with pytest.raises(ValueError, match="needs a SamplingConfig"):
            WindowedSampler(None, config=fast_config).compare(
                ["unison"], tiny_profile, "1GB")
        run = sampler.compare(["unison", "unison"], tiny_profile, "1GB",
                              labels=["a", "b"])
        assert set(run.designs) == {"a", "b"}


class TestSweepWiring:
    def test_spec_sampling_axis(self, fast_config, fast_sampling,
                                tiny_profile):
        spec = SweepSpec(
            designs=("unison",),
            workloads=(tiny_profile,),
            capacities=("1GB",),
            config=fast_config,
            sampling=fast_sampling,
        )
        for trial in spec.trials():
            assert trial.sampling == fast_sampling

    @staticmethod
    def mixed_spec(config, sampling, profile) -> SweepSpec:
        """One design twice: a full-replay cell and a sampled cell."""
        return SweepSpec(
            designs=("unison",),
            workloads=(profile,),
            capacities=("1GB",),
            config=config,
            overrides=(
                {"label": "full"},
                {"label": "sampled", "sampling": sampling},
            ),
        )

    def test_override_can_mix_full_and_sampled(self, fast_config,
                                               fast_sampling, tiny_profile):
        spec = self.mixed_spec(fast_config, fast_sampling, tiny_profile)
        trials = spec.trials()
        assert trials[0].sampling is None
        assert trials[1].sampling == fast_sampling

        results = run_sweep(spec)
        by_design = {r.design: r for r in results}
        assert "sampling_windows" not in by_design["full"].extra
        assert by_design["sampled"].extra["sampling_windows"] >= 3
        assert by_design["sampled"].accesses_measured \
            < by_design["full"].accesses_measured

    def test_mixed_sweep_through_the_queue_matches_serial(
            self, fast_config, fast_sampling, tiny_profile, tmp_path,
            monkeypatch):
        from repro.queue import SweepService

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        spec = self.mixed_spec(fast_config, fast_sampling, tiny_profile)
        serial = run_sweep(spec)
        queued = SweepService().run(spec, workers=2)
        assert queued.to_json() == serial.to_json()
        full_only = run_sweep(SweepSpec(
            designs=("unison",), workloads=(tiny_profile,),
            capacities=("1GB",), config=fast_config))
        assert [r for r in queued if r.design == "full"] == [
            replace(full_only[0], design="full")]

    def test_sampling_mapping_coerced(self, fast_config, tiny_profile):
        spec = ExperimentSpec(
            design="unison", workload=tiny_profile, capacity="1GB",
            config=fast_config,
            sampling={"window_accesses": 500, "max_windows": 6},
        )
        assert isinstance(spec.sampling, SamplingConfig)
        assert spec.sampling.window_accesses == 500

    def test_invalid_sampling_rejected(self, fast_config, tiny_profile):
        with pytest.raises(ValueError, match="sampling"):
            ExperimentSpec(design="unison", workload=tiny_profile,
                           capacity="1GB", config=fast_config,
                           sampling="yes please")

    def test_serial_parallel_identical(self, fast_config, fast_sampling,
                                       tiny_profile):
        spec = SweepSpec(
            designs=("unison", "alloy"),
            workloads=(tiny_profile,),
            capacities=("1GB",),
            config=fast_config,
            sampling=fast_sampling,
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial == parallel

    def test_run_trial_sampled_result_round_trips(self, fast_config,
                                                  fast_sampling,
                                                  tiny_profile, tmp_path):
        from repro.sim.resultset import ResultSet

        trial = ExperimentSpec(design="unison", workload=tiny_profile,
                               capacity="1GB", config=fast_config,
                               sampling=fast_sampling)
        result = run_trial(trial)
        results = ResultSet([result])
        path = tmp_path / "sampled.json"
        results.to_json(path)
        assert ResultSet.from_json(path) == results


class TestWindowBaselines:
    """Each window's no-cache baseline replays once per trace and window."""

    DESIGNS = ("unison", "alloy", "footprint")

    @pytest.fixture
    def fixed_sampling(self):
        return SamplingConfig(window_accesses=1_000, warmup_accesses=500,
                              checkpoint_accesses=4_000, min_windows=3,
                              max_windows=3)

    @pytest.fixture
    def baseline_replays(self, monkeypatch):
        """Accesses each no-cache baseline replay serviced, in call order."""
        from repro.baselines.no_cache import NoDramCache

        calls = []
        original = NoDramCache.run

        def counting(self, requests):
            calls.append(len(requests))
            return original(self, requests)

        monkeypatch.setattr(NoDramCache, "run", counting)
        return calls

    @staticmethod
    def _speedups(run, label):
        return [(w.window.index, w.speedup_vs_no_cache)
                for w in run.designs[label].windows]

    @pytest.mark.parametrize("batch", [True, False],
                             ids=["batch", "scalar"])
    def test_shared_baselines_change_no_result(self, fast_config,
                                               fixed_sampling, tiny_profile,
                                               baseline_replays, batch):
        from repro.engine import set_batch_enabled
        from repro.sim.executor import clear_caches

        sampler = WindowedSampler(fixed_sampling, config=fast_config)
        set_batch_enabled(batch)
        try:
            clear_caches()
            shared = [sampler.compare([name], tiny_profile, "1GB")
                      for name in self.DESIGNS]
            shared_replays = list(baseline_replays)
            grid = SweepSpec(designs=self.DESIGNS,
                             workloads=(tiny_profile,), capacities=("1GB",),
                             config=fast_config, sampling=fixed_sampling)
            swept = run_sweep(grid)

            cold = []
            singles = []
            for name in self.DESIGNS:
                clear_caches()
                cold.append(sampler.compare([name], tiny_profile, "1GB"))
                clear_caches()
                singles.extend(run_sweep(SweepSpec(
                    designs=(name,), workloads=(tiny_profile,),
                    capacities=("1GB",), config=fast_config,
                    sampling=fixed_sampling)))
        finally:
            set_batch_enabled(None)
            clear_caches()

        # Three windows, one baseline replay each, shared by all designs.
        assert shared_replays == [1_000] * 3
        for name, warm, fresh in zip(self.DESIGNS, shared, cold):
            assert self._speedups(warm, name) == self._speedups(fresh, name)
            assert warm.to_resultset() == fresh.to_resultset()
        assert swept.to_json() == ResultSet(singles).to_json()

    def test_clear_caches_drops_window_baselines(self, fast_config,
                                                 fixed_sampling,
                                                 tiny_profile,
                                                 baseline_replays):
        from repro.sim import executor

        executor.clear_caches()
        sampler = WindowedSampler(fixed_sampling, config=fast_config)
        sampler.compare(["alloy"], tiny_profile, "1GB")
        assert len(executor._BASELINE_CACHE) == 3
        sampler.compare(["unison"], tiny_profile, "1GB")
        assert len(baseline_replays) == 3  # the second run replayed none

        executor.clear_caches()
        assert executor._BASELINE_CACHE == {}
        sampler.compare(["unison"], tiny_profile, "1GB")
        assert len(baseline_replays) == 6

    def test_stream_without_identity_is_not_cached(self, fast_config,
                                                   fixed_sampling,
                                                   tiny_profile,
                                                   baseline_replays):
        from repro.sim import executor

        executor.clear_caches()
        trace = ExperimentRunner(fast_config).build_trace(tiny_profile)
        sampler = WindowedSampler(fixed_sampling, config=fast_config)
        for name in ("unison", "alloy"):
            sampler.compare([name], tiny_profile, "1GB", trace=trace)
        assert len(baseline_replays) == 6
        assert executor._BASELINE_CACHE == {}
