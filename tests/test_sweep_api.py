"""Tests for the declarative experiment API.

Covers the design registry, ExperimentSpec/SweepSpec validation, ResultSet
round-trips, the serial/parallel sweep executor equivalence, and the CLI.
"""

import json
from dataclasses import replace

import pytest

from repro.dramcache.composed import ComposedDramCache
from repro.dramcache.spec import ComponentSpec, DesignSpec
from repro.sim.executor import SweepExecutor, clear_caches, run_sweep, run_trial
from repro.sim.experiment import ExperimentConfig, ExperimentResult, ExperimentRunner
from repro.sim.factory import DESIGN_NAMES, make_design, unison_design_for_ways
from repro.sim.registry import DESIGNS, DesignRegistry
from repro.sim.resultset import ResultSet
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.workloads.cloudsuite import data_serving, web_search

#: Names the seed's hard-coded factory accepted; the registry must cover all.
LEGACY_DESIGN_NAMES = (
    "unison", "unison-1984", "unison-dm", "unison-32way",
    "alloy", "footprint", "loh_hill", "ideal", "no_cache",
)

FAST_CONFIG = ExperimentConfig(scale=4096, num_accesses=6_000, num_cores=4,
                               seed=11)


def legacy_full_replay(trial: ExperimentSpec) -> ExperimentResult:
    """A full replay the way a dedicated full-replay loop ran it.

    Warm a fresh design over ``[0, split)`` -- an empty slice at
    ``warmup_fraction=0`` -- then replay ``[split, n)`` and take the speedup
    against a no-DRAM-cache replay of the same accesses.  Built from the
    primitives only, as an oracle for the one-window plan of
    :func:`run_trial`.
    """
    from repro.baselines.no_cache import NoDramCache
    from repro.sim.experiment import measured_fields
    from repro.sim.performance import PerformanceModel

    trace = ExperimentRunner(trial.config).build_trace(trial.workload)
    split = int(len(trace) * trial.config.warmup_fraction)
    design = make_design(trial.design, trial.capacity,
                         scale=trial.config.scale,
                         num_cores=trial.config.num_cores,
                         associativity=trial.associativity)
    design.warm_up_array(trace[:split])
    before = (design.memory.row_activations, design.stacked.row_activations)
    design.run(trace[split:])
    baseline = NoDramCache()
    baseline.run(trace[split:])
    model = PerformanceModel()
    result = ExperimentResult(
        design=trial.result_label, workload=trial.workload.name,
        capacity=trial.capacity, scale=trial.config.scale,
        accesses_measured=len(trace) - split,
        **measured_fields(design, before),
        speedup_vs_no_cache=model.speedup(design.cache_stats,
                                          baseline.cache_stats,
                                          trial.workload),
        user_ipc=model.estimate(design.cache_stats, trial.workload).user_ipc,
    )
    for key, value in design.extra_metrics().items():
        if key in ExperimentResult.METRIC_FIELDS:
            setattr(result, key, value)
        else:
            result.extra[key] = float(value)
    return result


def make_result(design="unison", workload="Web Search", capacity="1GB",
                **overrides) -> ExperimentResult:
    """A fully-populated synthetic result for serialization tests."""
    kwargs = dict(
        design=design, workload=workload, capacity=capacity,
        scale=512, accesses_measured=1234,
        miss_ratio=0.07250000000000001, hit_ratio=0.9275,
        average_hit_latency=29.53, average_miss_latency=155.95,
        average_access_latency=38.7,
        offchip_blocks_per_access=0.8, offchip_demand_blocks=400,
        offchip_prefetch_blocks=500, offchip_writeback_blocks=66,
        offchip_row_activations=700, stacked_row_activations=2800,
        footprint_accuracy=0.91, footprint_overfetch=0.08,
        way_prediction_accuracy=None, miss_prediction_accuracy=None,
        miss_predictor_overfetch=None,
        speedup_vs_no_cache=1.19, user_ipc=0.42,
        extra={"custom_metric": 0.1 + 0.2},
    )
    kwargs.update(overrides)
    return ExperimentResult(**kwargs)


class TestRegistry:
    def test_registry_resolves_every_legacy_name(self):
        for name in LEGACY_DESIGN_NAMES:
            entry = DESIGNS.resolve(name)
            assert entry.name == name

    def test_design_names_derived_from_registry(self):
        assert set(LEGACY_DESIGN_NAMES) <= set(DESIGN_NAMES)
        assert set(DESIGN_NAMES) <= set(DESIGNS.names())

    def test_lookup_is_case_insensitive(self):
        assert DESIGNS.resolve("UNISON").name == "unison"

    def test_unknown_design_rejected_with_options(self):
        with pytest.raises(ValueError, match="options"):
            DESIGNS.resolve("missmap")

    def test_duplicate_registration_rejected(self):
        registry = DesignRegistry()
        spec = DesignSpec(name="x", tags=ComponentSpec("no-cache"))
        registry.register_spec(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_spec(spec)
        registry.register_spec(spec, replace=True)

    def test_custom_registration_builds(self):
        registry = DesignRegistry()
        registry.register_spec(DesignSpec(
            name="tiny-missmap",
            tags=ComponentSpec("missmap", {"missmap_latency_cycles": 4}),
        ))
        design = registry.build("TINY-MISSMAP", "1GB", scale=1024)
        assert isinstance(design, ComposedDramCache)
        assert design.capacity_bytes == 1024 * 1024
        assert design.tags.missmap_latency_cycles == 4
        assert "tiny-missmap" not in DESIGNS  # private registries stay private

    def test_make_design_rejects_associativity_for_fixed_geometry(self):
        for name in ("alloy", "footprint", "loh_hill", "ideal", "no_cache"):
            with pytest.raises(ValueError, match="associativity"):
                make_design(name, "1GB", scale=1024, associativity=8)

    def test_make_design_accepts_associativity_for_unison(self):
        design = make_design("unison", "1GB", scale=1024, associativity=8)
        assert design.tags.config.associativity == 8

    def test_extra_metrics_uniform_hook(self):
        unison = make_design("unison", "1GB", scale=1024)
        assert set(unison.extra_metrics()) == {
            "footprint_accuracy", "footprint_overfetch",
            "way_prediction_accuracy",
        }
        alloy = make_design("alloy", "1GB", scale=1024)
        assert set(alloy.extra_metrics()) == {
            "miss_prediction_accuracy", "miss_predictor_overfetch",
        }
        assert make_design("no_cache", "1GB").extra_metrics() == {}


class TestUnisonLabels:
    def test_canonical_ways_map_to_registered_variants(self):
        assert unison_design_for_ways(1) == ("unison-dm", "unison-dm")
        assert unison_design_for_ways(4) == ("unison", "unison")
        assert unison_design_for_ways(32) == ("unison-32way", "unison-32way")

    def test_non_canonical_ways_get_derived_label(self):
        assert unison_design_for_ways(8) == ("unison", "unison-8way")
        with pytest.raises(ValueError):
            unison_design_for_ways(0)

    def test_sweep_labels_non_canonical_ways(self):
        results = run_sweep(SweepSpec(
            designs=("unison",), workloads=(web_search(),),
            capacities=("1GB",), config=FAST_CONFIG,
            overrides=({"associativity": 8},),
        ))
        assert results.designs == ("unison-8way",)


class TestSpecs:
    def test_experiment_spec_normalizes_and_validates(self):
        spec = ExperimentSpec(design="UNISON", workload="web search",
                              capacity="1024MB", config=FAST_CONFIG)
        assert spec.design == "unison"
        assert spec.workload.name == "Web Search"
        assert spec.capacity == "1GB"
        assert spec.result_label == "unison"

    def test_experiment_spec_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            ExperimentSpec(design="missmap", workload="Web Search",
                           capacity="1GB")

    def test_experiment_spec_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentSpec(design="unison", workload="SPECint",
                           capacity="1GB")

    def test_experiment_spec_rejects_bad_associativity(self):
        with pytest.raises(ValueError, match="associativity"):
            ExperimentSpec(design="alloy", workload="Web Search",
                           capacity="1GB", associativity=8)

    def test_sweep_spec_materializes_grid_in_order(self):
        spec = SweepSpec(designs=("unison", "alloy"),
                         workloads=("Web Search", "Data Serving"),
                         capacities=("256MB", "1GB"),
                         config=FAST_CONFIG)
        assert len(spec) == 8
        trials = spec.trials()
        assert [t.design for t in trials[:4]] == ["unison"] * 4
        assert trials[0].workload.name == "Web Search"
        assert trials[0].capacity == "256MB"
        assert trials[1].capacity == "1GB"

    def test_sweep_spec_validates_at_construction(self):
        with pytest.raises(ValueError, match="unknown design"):
            SweepSpec(designs=("unison", "missmap"),
                      workloads=("Web Search",), capacities=("1GB",))
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec(designs=(), workloads=("Web Search",),
                      capacities=("1GB",))
        with pytest.raises(ValueError, match="unknown override keys"):
            SweepSpec(designs=("unison",), workloads=("Web Search",),
                      capacities=("1GB",), overrides=({"way_count": 8},))

    def test_sweep_spec_overrides_axis(self):
        spec = SweepSpec(designs=("unison",), workloads=("Web Search",),
                         capacities=("1GB",), config=FAST_CONFIG,
                         overrides=({"associativity": 8}, {"seed": 99}))
        trials = spec.trials()
        assert len(trials) == 2
        assert trials[0].associativity == 8
        assert trials[0].result_label == "unison-8way"
        assert trials[1].config.seed == 99
        assert trials[1].result_label == "unison"

    def test_sweep_spec_override_labels_use_canonical_variant_names(self):
        spec = SweepSpec(designs=("unison",), workloads=("Web Search",),
                         capacities=("1GB",), config=FAST_CONFIG,
                         overrides=({"associativity": 1},
                                    {"associativity": 4},
                                    {"associativity": 32}))
        assert [t.result_label for t in spec.trials()] == [
            "unison-dm", "unison", "unison-32way",
        ]

    def test_sweep_spec_normalizes_design_case(self):
        spec = SweepSpec(designs=("UNISON",), workloads=("Web Search",),
                         capacities=("1GB",), config=FAST_CONFIG)
        assert spec.designs == ("unison",)


class TestResultSet:
    def test_filter_group_metric(self):
        rs = ResultSet([
            make_result(design="unison", capacity="1GB"),
            make_result(design="alloy", capacity="1GB", miss_ratio=0.5),
            make_result(design="unison", capacity="256MB", miss_ratio=0.2),
        ])
        assert len(rs.filter(design="unison")) == 2
        assert len(rs.filter(design="unison", capacity="1GB")) == 1
        assert len(rs.filter(lambda r: r.miss_ratio > 0.1)) == 2
        groups = rs.group_by("design")
        assert set(groups) == {"unison", "alloy"}
        assert len(groups["unison"]) == 2
        assert rs.best_by("miss_ratio").design == "unison"
        assert rs.designs == ("unison", "alloy")
        with pytest.raises(ValueError, match="unknown result fields"):
            rs.filter(flavor="chocolate")

    def test_json_roundtrip_is_lossless(self, tmp_path):
        rs = ResultSet([make_result(), make_result(design="alloy",
                                                   speedup_vs_no_cache=None)])
        assert ResultSet.from_json(rs.to_json()) == rs
        path = tmp_path / "results.json"
        rs.to_json(path)
        assert ResultSet.from_json(path) == rs
        payload = json.loads(rs.to_json())
        assert payload["schema"] == "repro.resultset/v1"

    def test_csv_roundtrip_is_lossless(self, tmp_path):
        rs = ResultSet([make_result(), make_result(design="alloy",
                                                   footprint_accuracy=None,
                                                   extra={})])
        assert ResultSet.from_csv(rs.to_csv()) == rs
        path = tmp_path / "results.csv"
        rs.to_csv(path)
        assert ResultSet.from_csv(path) == rs

    def test_table_renders_every_result(self):
        rs = ResultSet([make_result(), make_result(design="alloy")])
        table = rs.table()
        assert "unison" in table and "alloy" in table
        assert len(table.splitlines()) == 4  # header + rule + 2 rows


class TestExecutor:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    def grid_spec(self) -> SweepSpec:
        return SweepSpec(
            designs=("unison", "alloy"),
            workloads=(web_search(), data_serving()),
            capacities=("256MB", "1GB"),
            config=FAST_CONFIG,
        )

    def test_parallel_identical_to_serial_and_json_roundtrips(self):
        spec = self.grid_spec()
        serial = run_sweep(spec, workers=1)
        clear_caches()
        parallel = run_sweep(spec, workers=2)
        assert len(serial) == len(spec) == 8
        # Bit-identical contents, in the same deterministic order.
        assert serial.to_records() == parallel.to_records()
        assert ResultSet.from_json(parallel.to_json()) == parallel

    def test_trial_matches_legacy_runner(self):
        trial = ExperimentSpec(design="unison", workload=web_search(),
                               capacity="1GB", config=FAST_CONFIG)
        assert run_trial(trial) == legacy_full_replay(trial)

    @pytest.mark.parametrize("design", ["unison", "alloy", "footprint",
                                        "loh_hill"])
    def test_zero_warmup_full_replay_matches_legacy_runner(self, design):
        """At ``warmup_fraction=0`` the window routine resets the stats
        where a full-replay loop warmed over an empty slice: same result,
        and no ``sampling_*`` extra."""
        trial = ExperimentSpec(design=design, workload=web_search(),
                               capacity="1GB",
                               config=replace(FAST_CONFIG,
                                              warmup_fraction=0.0))
        result = run_trial(trial)
        assert result == legacy_full_replay(trial)
        assert result.accesses_measured == FAST_CONFIG.num_accesses
        assert not [key for key in result.extra
                    if key.startswith("sampling_")]

    def test_trace_and_baseline_are_shared(self, tmp_path, monkeypatch):
        # A fresh store directory so no earlier test pre-stored the traces.
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        clear_caches()
        spec = self.grid_spec()
        counts = {"traces": 0}
        from repro.workloads.generator import SyntheticWorkload

        original = SyntheticWorkload.iter_chunks

        def counting(self, count, *args, **kwargs):
            counts["traces"] += 1
            return original(self, count, *args, **kwargs)

        monkeypatch.setattr(SyntheticWorkload, "iter_chunks", counting)
        SweepExecutor(workers=1).run(spec)
        # 8 cells over 2 workloads -> exactly 2 trace generations.
        assert counts["traces"] == 2

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)


class TestCli:
    def test_cli_runs_sweep_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = main([
            "--designs", "unison", "alloy",
            "--workloads", "Web Search",
            "--capacities", "256MB",
            "--scale", "4096", "--accesses", "4000",
            "--json", str(json_path), "--csv", str(csv_path),
            "--quiet",
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "unison" in table and "alloy" in table
        loaded = ResultSet.from_json(json_path)
        assert loaded.designs == ("unison", "alloy")
        assert ResultSet.from_csv(csv_path) == loaded

    def test_cli_rejects_unknown_design(self, capsys):
        from repro.cli import main

        assert main(["--designs", "missmap"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_cli_listings(self, capsys):
        from repro.cli import main

        assert main(["--list-designs"]) == 0
        assert "unison" in capsys.readouterr().out
        assert main(["--list-workloads"]) == 0
        assert "Web Search" in capsys.readouterr().out
