"""Tests for the StateSnapshot protocol on the DRAM-cache designs."""

import pickle

import pytest

from repro.dramcache.base import StateSnapshot
from repro.sim.factory import make_design
from repro.workloads.generator import SyntheticWorkload


DESIGNS = ["unison", "alloy", "footprint", "loh_hill", "ideal", "no_cache"]


def _make(design_name):
    return make_design(design_name, "1GB", scale=4096, num_cores=4)


def _stats_tuple(design):
    stats = design.cache_stats
    return (stats.hits, stats.misses, stats.total_hit_latency,
            stats.total_miss_latency, stats.offchip_demand_blocks,
            stats.offchip_prefetch_blocks, stats.offchip_writeback_blocks,
            design.memory.row_activations, design.stacked.row_activations)


@pytest.fixture(scope="module")
def replay(tiny_profile_module):
    workload = SyntheticWorkload(tiny_profile_module, num_cores=4, seed=3)
    return workload.generate(6000)


@pytest.fixture(scope="module")
def tiny_profile_module():
    from repro.workloads.profile import WorkloadProfile

    return WorkloadProfile(
        name="tiny", working_set="2MB", num_code_regions=32,
        footprint_density=0.5, footprint_noise=0.05, singleton_fraction=0.1,
        temporal_reuse=0.2, region_zipf_alpha=0.6, pc_locality_run=3,
        write_fraction=0.25, l2_mpki=20.0,
    )


class TestSnapshotRestore:
    @pytest.mark.parametrize("design_name", DESIGNS)
    def test_restore_rewinds_exactly(self, design_name, replay):
        """Replay A, snapshot, replay B; restore must reproduce B exactly."""
        design = _make(design_name)
        design.run(replay[:2000])
        snapshot = design.snapshot_state()

        design.run(replay[2000:4000])
        first = _stats_tuple(design)

        design.restore_state(snapshot)
        design.run(replay[2000:4000])
        assert _stats_tuple(design) == first

    @pytest.mark.parametrize("design_name", DESIGNS)
    def test_snapshot_is_isolated_from_live_model(self, design_name, replay):
        """Replaying after a snapshot must not mutate the snapshot."""
        design = _make(design_name)
        design.run(replay[:1500])
        snapshot = design.snapshot_state()
        at_snapshot = _stats_tuple(design)

        design.run(replay[1500:4000])
        assert _stats_tuple(design) != at_snapshot  # sanity: state advanced

        design.restore_state(snapshot)
        assert _stats_tuple(design) == at_snapshot

    def test_snapshot_reusable_many_times(self, replay):
        """One warm checkpoint must serve many downstream windows."""
        design = _make("unison")
        design.warm_up(replay[:3000])
        checkpoint = design.snapshot_state()
        outcomes = []
        for _ in range(3):
            design.restore_state(checkpoint)
            design.reset_stats()
            design.run(replay[4000:5000])
            outcomes.append(_stats_tuple(design))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_restore_wrong_design_rejected(self, replay):
        unison = _make("unison")
        alloy = _make("alloy")
        with pytest.raises(ValueError, match="snapshot of design"):
            alloy.restore_state(unison.snapshot_state())

    def test_restore_mismatched_state_keys_rejected(self):
        design = _make("unison")
        bad = StateSnapshot(design_name="unison", state={"_frames": []})
        with pytest.raises(ValueError, match="state keys"):
            design.restore_state(bad)

    def test_snapshot_covers_declared_design_state(self):
        """Every declared state attribute exists and lands in the snapshot."""
        for design_name in DESIGNS:
            design = _make(design_name)
            snapshot = design.snapshot_state()
            attrs = type(design)._snapshot_attrs()
            assert set(snapshot.state) == set(attrs)
            # Base state is always present.
            for name in ("_now", "cache_stats", "memory", "stacked"):
                assert name in snapshot.state

    def test_predictor_training_is_checkpointed(self, replay):
        """Restoring rewinds predictor tables, not just cache contents.

        Extra training between snapshot and restore must leave no residue:
        a restored replay matches a replay taken straight from the
        snapshot, including the predictor-driven metrics.
        """
        design = _make("unison")
        design.run(replay[:3000])
        snapshot = design.snapshot_state()

        design.restore_state(snapshot)
        design.reset_stats()
        design.run(replay[3000:6000])
        fresh = (_stats_tuple(design), design.extra_metrics())

        design.run(replay[:3000])  # extra training the snapshot predates
        design.restore_state(snapshot)
        design.reset_stats()
        design.run(replay[3000:6000])
        assert (_stats_tuple(design), design.extra_metrics()) == fresh


def _dram_requests(design):
    return (design.stacked.controller.total_requests,
            design.memory.controller.total_requests)


class TestDramStateAliasing:
    """The controllers' bound timing closures never leak across copies."""

    @pytest.mark.parametrize("serve", ["run", "warm_up_array"])
    @pytest.mark.parametrize("design_name", ["unison", "alloy", "no_cache"])
    def test_restored_design_serves_on_its_own_lists(self, design_name,
                                                     serve, replay):
        design = _make(design_name)
        getattr(design, serve)(replay[:1000])  # binds the closures
        snapshot = design.snapshot_state()
        frozen = pickle.dumps(snapshot)

        getattr(design, serve)(replay[1000:2000])
        design.restore_state(snapshot)
        restored = _dram_requests(design)
        getattr(design, serve)(replay[2000:2001])

        assert sum(_dram_requests(design)) > sum(restored)
        assert pickle.dumps(snapshot) == frozen

    def test_bound_controller_pickles(self, replay):
        design = _make("unison")
        design.run(replay[:500])
        controller = design.stacked.controller
        copy = pickle.loads(pickle.dumps(controller))
        before = controller.total_requests
        copy.access(0, 64, 0)
        assert copy.total_requests == before + 1
        assert controller.total_requests == before
