"""Tests for the composable design API.

Covers the three contracts the composition refactor makes:

* **One constructor** -- every registered design name builds a plain
  :class:`ComposedDramCache` from its :class:`DesignSpec`, through
  :func:`make_design` and :meth:`DesignSpec.build` alike.
* **Hybrids are first-class** -- the component-composed designs
  (``alloy+footprint``, ``unison-nowp``) run through sweeps, sampled
  trials, and the snapshot/rewind protocol like any canonical design.
* **The registries behave** -- spec registration validates component kinds,
  rejects duplicates, and produces stable identity tokens.
"""

from __future__ import annotations

import pytest

from repro.config.cache_configs import AlloyCacheConfig, scaled_capacity
from repro.dramcache.components import (
    DirectMappedBlockTags,
    DisabledMissPrediction,
)
from repro.dramcache.composed import ComposedDramCache
from repro.dramcache.spec import ComponentSpec, DesignSpec
from repro.queue.service import group_trials_by_trace
from repro.sim.executor import run_trial
from repro.sim.experiment import ExperimentConfig
from repro.sim.factory import make_design
from repro.sim.registry import DESIGNS, DesignBuildContext, DesignRegistry
from repro.sim.spec import SweepSpec
from repro.sampling.windows import SamplingConfig
from repro.utils.units import parse_size
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile

HYBRIDS = ["alloy+footprint", "unison-nowp"]


@pytest.fixture(scope="module")
def profile():
    return WorkloadProfile(
        name="compose-tiny", working_set="2MB", num_code_regions=32,
        footprint_density=0.5, footprint_noise=0.05, singleton_fraction=0.1,
        temporal_reuse=0.2, region_zipf_alpha=0.6, pc_locality_run=3,
        write_fraction=0.25, l2_mpki=20.0,
    )


@pytest.fixture(scope="module")
def trace(profile):
    return SyntheticWorkload(profile, num_cores=4, seed=7).generate(5000)


def build_context(capacity="1GB", scale=1024, num_cores=4,
                  associativity=None) -> DesignBuildContext:
    paper = parse_size(capacity)
    return DesignBuildContext(
        paper_capacity_bytes=paper,
        scaled_capacity_bytes=scaled_capacity(paper, scale),
        scale=scale,
        num_cores=num_cores,
        associativity=associativity,
    )


def replay_fingerprint(design, trace):
    """Exact per-access behaviour plus the aggregate/device counters."""
    per_access = [
        (r.hit, r.latency_cycles, r.offchip_blocks_fetched,
         r.offchip_blocks_written)
        for r in (design.access(request) for request in trace)
    ]
    stats = design.cache_stats
    return (
        per_access,
        (stats.hits, stats.misses, stats.total_hit_latency,
         stats.total_miss_latency, stats.offchip_demand_blocks,
         stats.offchip_prefetch_blocks, stats.offchip_writeback_blocks,
         stats.pages_allocated, stats.pages_evicted,
         stats.underprediction_misses, stats.singleton_bypasses),
        (design.memory.row_activations, design.stacked.row_activations,
         design.memory.blocks_read, design.memory.blocks_written),
        design.extra_metrics(),
    )


class TestOneConstructor:
    def test_every_registered_name_builds_a_composed_engine(self):
        """No design has a class of its own: every name is a pure spec."""
        for name in DESIGNS:
            design = make_design(name, "1GB", scale=1024)
            assert type(design) is ComposedDramCache, name

    def test_make_design_matches_direct_spec_build(self, trace):
        """The registry lookup adds nothing to the spec's own build."""
        via_registry = make_design("unison", "1GB", scale=1024, num_cores=4)
        via_spec = DESIGNS.resolve("unison").spec.build(build_context())
        assert replay_fingerprint(via_registry, trace) == replay_fingerprint(
            via_spec, trace)

    def test_spec_params_reach_the_components(self):
        spec = DesignSpec(
            name="tuned-unison",
            tags=ComponentSpec("dram-page", {"blocks_per_page": 15,
                                             "associativity": 4}),
            hit_predictor=ComponentSpec("way", {"index_bits": 10}),
            fetch=ComponentSpec("footprint", {"table_entries": 2048}),
        )
        design = spec.build(build_context())
        assert design.way_predictor.index_bits == 10
        assert design.footprint_predictor.num_entries == 2048

    def test_degenerate_predictors_keep_metric_keys(self):
        """unison-dm must still report way_prediction_accuracy == 1.0 (the
        legacy perfect-knowledge value), and an Alloy organization without
        its miss predictor keeps reporting the MAP-I metric keys."""
        design = make_design("unison-dm", "1GB", scale=1024, num_cores=4)
        assert design.extra_metrics()["way_prediction_accuracy"] == 1.0
        bare = ComposedDramCache(
            tags=DirectMappedBlockTags(AlloyCacheConfig(capacity=64 * 8192)),
            hit_predictor=DisabledMissPrediction(),
        )
        assert bare.extra_metrics() == {
            "miss_prediction_accuracy": 0.0,
            "miss_predictor_overfetch": 0.0,
        }

    def test_associativity_override_matches(self, trace):
        via_registry = make_design("unison", "1GB", scale=1024, num_cores=4,
                                   associativity=8)
        via_spec = DESIGNS.resolve("unison").spec.build(
            build_context(associativity=8))
        assert via_registry.tags.associativity == 8
        assert replay_fingerprint(via_registry, trace) == replay_fingerprint(
            via_spec, trace)


class TestHybridDesigns:
    @pytest.mark.parametrize("name", HYBRIDS)
    def test_runs_and_caches(self, name, trace):
        design = make_design(name, "1GB", scale=1024, num_cores=4)
        design.run(trace)
        stats = design.cache_stats
        assert stats.accesses == len(trace)
        assert stats.hits + stats.misses == len(trace)
        assert 0.0 < stats.hit_ratio < 1.0  # it actually caches
        assert design.memory.blocks_read >= stats.offchip_demand_blocks

    def test_nowp_hits_slower_than_unison(self, trace):
        """Removing way prediction must cost hit latency, nothing else."""
        unison = make_design("unison", "1GB", scale=1024, num_cores=4)
        nowp = make_design("unison-nowp", "1GB", scale=1024, num_cores=4)
        unison.run(trace)
        nowp.run(trace)
        # Same organization and fetch policy: identical functional contents.
        assert nowp.cache_stats.misses == pytest.approx(
            unison.cache_stats.misses, rel=0.02)
        assert (nowp.cache_stats.average_hit_latency
                > unison.cache_stats.average_hit_latency)

    def test_alloy_footprint_outhits_alloy(self, trace):
        """Footprint fetching must lift Alloy's hit ratio on a spatial
        workload (the whole point of the hybrid)."""
        alloy = make_design("alloy", "1GB", scale=1024, num_cores=4)
        hybrid = make_design("alloy+footprint", "1GB", scale=1024,
                             num_cores=4)
        alloy.run(trace)
        hybrid.run(trace)
        assert hybrid.cache_stats.hit_ratio > alloy.cache_stats.hit_ratio

    @pytest.mark.parametrize("name", HYBRIDS)
    def test_snapshot_restore_rewinds_exactly(self, name, trace):
        design = make_design(name, "1GB", scale=2048, num_cores=4)
        design.run(trace[:2000])
        snapshot = design.snapshot_state()
        design.run(trace[2000:4000])
        first = replay_fingerprint(design, trace[4000:4500])

        design.restore_state(snapshot)
        design.run(trace[2000:4000])
        assert replay_fingerprint(design, trace[4000:4500]) == first

    def test_hybrids_sweepable(self, profile):
        spec = SweepSpec(
            designs=("alloy", "alloy+footprint", "unison-nowp"),
            workloads=(profile,),
            capacities=("256MB",),
            config=ExperimentConfig(scale=4096, num_accesses=6000,
                                    num_cores=2, seed=3),
        )
        results = spec  # validated at construction
        from repro.sim.executor import run_sweep

        table = run_sweep(results, workers=1)
        assert len(table) == 3
        names = {r.design for r in table}
        assert names == {"alloy", "alloy+footprint", "unison-nowp"}

    @pytest.mark.parametrize("name", HYBRIDS)
    def test_hybrids_sampled_measurable(self, name, profile):
        from repro.sim.spec import ExperimentSpec

        trial = ExperimentSpec(
            design=name,
            workload=profile,
            capacity="256MB",
            config=ExperimentConfig(scale=4096, num_accesses=20_000,
                                    num_cores=2, seed=3),
            sampling=SamplingConfig(
                window_accesses=1000, warmup_accesses=500,
                checkpoint_accesses=4000, min_windows=2, max_windows=3,
            ),
        )
        result = run_trial(trial)
        assert result.design == name
        assert result.accesses_measured > 0
        assert 0.0 <= result.miss_ratio <= 1.0
        assert result.extra["sampling_windows"] >= 2


class TestSpecApi:
    def test_duplicate_spec_rejected(self):
        registry = DesignRegistry()
        spec = DesignSpec(name="x", tags=ComponentSpec("no-cache"))
        registry.register_spec(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_spec(spec)
        registry.register_spec(spec, replace=True)  # explicit replace ok

    def test_unknown_component_kind_fails_at_declaration(self):
        with pytest.raises(ValueError, match="tag organization"):
            DesignSpec(name="x", tags=ComponentSpec("quantum-tags"))
        with pytest.raises(ValueError, match="fetch policy"):
            DesignSpec(name="x", tags=ComponentSpec("no-cache"),
                       fetch=ComponentSpec("telepathy"))

    def test_component_params_must_be_plain(self):
        with pytest.raises(ValueError, match="plain"):
            ComponentSpec("dram-page", {"geometry": object()})

    def test_token_tracks_composition(self):
        a = DesignSpec(name="t", tags=ComponentSpec("dram-page"))
        b = DesignSpec(name="t", tags=ComponentSpec(
            "dram-page", {"associativity": 8}))
        c = DesignSpec(name="t", tags=ComponentSpec("dram-page"),
                       fetch=ComponentSpec("full-page"))
        assert len({a.token(), b.token(), c.token()}) == 3
        # Parameter order does not matter: tokens are canonical.
        d = ComponentSpec("dram-page", {"a": 1, "b": 2})
        e = ComponentSpec("dram-page", {"b": 2, "a": 1})
        assert d.token() == e.token()

    def test_registry_token_for_spec_entries(self):
        token = DESIGNS.resolve("unison").token()
        assert "dram-page" in token and "footprint" in token
        assert token != DESIGNS.resolve("unison-dm").token()

    def test_spec_buildable_through_make_design(self, trace, monkeypatch):
        # A spec registered at runtime is immediately constructible and
        # sweepable by name, like any shipped design.
        monkeypatch.setattr(DESIGNS, "_entries", dict(DESIGNS._entries))
        registry_spec = DesignSpec(
            name="test-full-page",
            tags=ComponentSpec("sram-page", {"associativity": 8}),
            fetch=ComponentSpec("full-page"),
            description="test-only: SRAM tags fetching whole pages",
        )
        DESIGNS.register_spec(registry_spec, replace=True)
        design = make_design("test-full-page", "256MB", scale=1024)
        design.run(trace[:1500])
        assert design.cache_stats.accesses == 1500
        assert design.cache_stats.hits > 0

    def test_designs_cli_lists_components(self, capsys):
        from repro.cli import main

        assert main(["designs", "--components"]) == 0
        out = capsys.readouterr().out
        assert "alloy+footprint" in out
        assert "tags=dram-page" in out
        assert "tag organization:" in out


class TestStoreAwareScheduling:
    def test_groups_partition_by_trace_key(self, profile):
        other = WorkloadProfile(
            name="compose-tiny-b", working_set="2MB", num_code_regions=32,
            footprint_density=0.5, footprint_noise=0.05,
            singleton_fraction=0.1, temporal_reuse=0.2,
            region_zipf_alpha=0.6, pc_locality_run=3,
            write_fraction=0.25, l2_mpki=20.0,
        )
        spec = SweepSpec(
            designs=("unison", "alloy"),
            workloads=(profile, other),
            capacities=("256MB",),
            config=ExperimentConfig(scale=4096, num_accesses=4000,
                                    num_cores=2),
        )
        trials = spec.trials()
        groups = group_trials_by_trace(trials)
        # Two workloads -> two groups covering all trials exactly once.
        assert len(groups) == 2
        flattened = sorted(i for group in groups for i in group)
        assert flattened == list(range(len(trials)))
        for group in groups:
            keys = {trials[i].workload for i in group}
            assert len(keys) == 1

    def test_parallel_equals_serial_with_batching(self, profile):
        from repro.sim.executor import run_sweep

        spec = SweepSpec(
            designs=("alloy", "alloy+footprint"),
            workloads=(profile,),
            capacities=("256MB",),
            config=ExperimentConfig(scale=4096, num_accesses=4000,
                                    num_cores=2, seed=11),
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.to_records() == parallel.to_records()
