"""Tests for the StateSnapshot protocol on the DRAM-cache designs."""

import copy
import pickle
import random
import re

import pytest

from repro.dramcache.base import StateSnapshot, state_leaves
from repro.sim.factory import design_names, make_design
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
        """Every declared state buffer exists and lands in the snapshot."""
        for design_name in DESIGNS:
            design = _make(design_name)
            snapshot = design.snapshot_state()
            names = [name for name, _, _ in state_leaves(design)]
            assert len(names) == len(set(names))
            assert set(snapshot.state) == set(names)
            # Base state is always present.
            for name in ("_now", "cache_stats.hits",
                         "memory.controller.open_row", "memory.blocks_read",
                         "stacked.controller.open_row"):
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
        frozen = StateSnapshot(snapshot.design_name,
                               copy.deepcopy(snapshot.state))

        getattr(design, serve)(replay[1000:2000])
        design.restore_state(snapshot)
        restored = _dram_requests(design)
        getattr(design, serve)(replay[2000:2001])

        assert sum(_dram_requests(design)) > sum(restored)
        assert snapshot.differing_buffers(frozen) == []

    def test_bound_controller_pickles(self, replay):
        design = _make("unison")
        design.run(replay[:500])
        controller = design.stacked.controller
        copy = pickle.loads(pickle.dumps(controller))
        before = controller.total_requests
        copy.access(0, 64, 0)
        assert copy.total_requests == before + 1
        assert controller.total_requests == before


#: Scalar element types a snapshot payload may hold.
_PLAIN = (int, float, bool, str)


def _is_flat_element(value) -> bool:
    if type(value) in _PLAIN:
        return True
    return type(value) is tuple and all(type(v) in _PLAIN for v in value)


def _flat_violations(state) -> list:
    """Buffers of a snapshot payload that are not plain flat data."""
    bad = []
    for name, value in state.items():
        if type(value) in _PLAIN:
            continue
        if type(value) is tuple:
            ok = all(_is_flat_element(v) for v in value)
        elif type(value) is dict:
            ok = all(_is_flat_element(k) and _is_flat_element(v)
                     for k, v in value.items())
        else:
            ok = False
        if not ok:
            bad.append(name)
    return bad


def assert_flat_payload(snapshot) -> None:
    assert _flat_violations(snapshot.state) == []


class TestFlatPayload:
    """Snapshots hold plain buffers, never model objects."""

    @pytest.mark.parametrize("design_name", design_names())
    def test_payload_is_plain_data(self, design_name, replay):
        design = _make(design_name)
        design.run(replay[:3000])
        assert_flat_payload(design.snapshot_state())

    @pytest.mark.parametrize("value", [
        object(), [1, 2], {"k": [1]}, ((1, 2), [3]), (random.Random(1),),
    ])
    def test_guard_rejects_objects(self, value):
        from repro.dramcache.components import (Lookup, LruReplacement,
                                                RandomReplacement)

        assert _flat_violations({"buffer": value}) == ["buffer"]
        lookup = Lookup(page=1, set_index=0, offset=0, way=0, block_hit=True,
                        page_hit=True)
        for obj in (lookup, RandomReplacement(), LruReplacement()):
            assert _flat_violations({"buffer": obj}) == ["buffer"]
            assert _flat_violations({"buffer": (obj,)}) == ["buffer"]
            assert _flat_violations({"buffer": {1: obj}}) == ["buffer"]


class TestRestoreGuards:
    """A snapshot that does not fit is refused before anything is written."""

    @pytest.mark.parametrize("design_name", ["unison", "alloy", "loh_hill",
                                             "footprint"])
    def test_wrong_length_buffer_rejected_untouched(self, design_name,
                                                    replay):
        design = _make(design_name)
        design.run(replay[:2000])
        good = design.snapshot_state()
        design.run(replay[2000:3000])
        live = design.snapshot_state()

        lists = [name for name, value in good.state.items()
                 if type(value) is tuple and len(value) > 1]
        # Corrupt the *last* list buffer, so a restore that wrote buffers
        # one by one would already have rewound every other one.
        name = lists[-1]
        bad_state = dict(good.state)
        bad_state[name] = good.state[name][:-1]
        with pytest.raises(ValueError, match=re.escape(name)):
            design.restore_state(StateSnapshot(good.design_name, bad_state))
        assert design.snapshot_state().differing_buffers(live) == []

        bad_state[name] = good.state[name] + good.state[name][:1]
        with pytest.raises(ValueError):
            design.restore_state(StateSnapshot(good.design_name, bad_state))
        assert design.snapshot_state().differing_buffers(live) == []

    def test_wrong_length_draws_rejected_untouched(self, replay):
        """Random replacement's per-set draw counts must match the set
        count; a misfit is refused before anything is written."""
        design = _make_random_unison()
        design.run(replay[:2000])
        good = design.snapshot_state()
        design.run(replay[2000:3000])
        live = design.snapshot_state()
        draws = good.state["replacement.draws"]
        assert len(draws) == design.tags.num_sets and any(draws)
        for bad in (draws[:-1], draws + (0,)):
            bad_state = dict(good.state, **{"replacement.draws": bad})
            with pytest.raises(ValueError, match="replacement.draws"):
                design.restore_state(StateSnapshot(good.design_name,
                                                   bad_state))
            assert design.snapshot_state().differing_buffers(live) == []

    def test_wrong_scalar_type_rejected(self, replay):
        design = _make("unison")
        good = design.snapshot_state()
        bad_state = dict(good.state)
        bad_state["_now"] = (0,)
        with pytest.raises(ValueError, match="_now"):
            design.restore_state(StateSnapshot(good.design_name, bad_state))

    def test_checkpoint_designs_fall_back_to_warming(self, tmp_path,
                                                     tiny_profile_module,
                                                     monkeypatch):
        """A stored checkpoint that does not fit is warmed over, not used."""
        from repro.sampling.checkpoints import CheckpointStore
        from repro.sampling.runner import WindowedSampler
        from repro.sampling.windows import SamplingConfig
        from repro.sim.experiment import ExperimentConfig

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        monkeypatch.delenv("REPRO_CHECKPOINTS", raising=False)
        store = CheckpointStore.default()
        config = ExperimentConfig(num_accesses=6000, scale=4096,
                                  num_cores=4, seed=3)
        sampling = SamplingConfig(max_windows=2, min_windows=2,
                                  window_accesses=200,
                                  warmup_accesses=100,
                                  checkpoint_accesses=2000)
        sampler = WindowedSampler(sampling=sampling, config=config)
        workload = tiny_profile_module

        def checkpoint_designs():
            with sampler._opened(workload, None) as (provider, stream, plan):
                return sampler._start_states(
                    provider, stream, plan, ["unison"], "1GB", None,
                    None), plan, stream

        (cold,), plan, stream = checkpoint_designs()
        key = store.key(trace=stream, design=_design_token("unison"),
                        capacity="1GB", scale=4096, num_cores=4,
                        associativity=None,
                        checkpoint_start=plan.checkpoint_start,
                        checkpoint_stop=plan.checkpoint_stop)
        warm = cold[1]
        bad_state = dict(warm.state)
        bad_state["tags.page"] = warm.state["tags.page"][:-1]
        assert store.save(key, StateSnapshot(warm.design_name, bad_state))
        assert store.load(key).state["tags.page"] == bad_state["tags.page"]

        (fallback,), _, _ = checkpoint_designs()
        design, checkpoint = fallback
        assert checkpoint.differing_buffers(warm) == []
        assert design.snapshot_state().differing_buffers(warm) == []
        # The warmed-over checkpoint replaced the one that did not fit.
        assert store.load(key).differing_buffers(warm) == []


def _make_random_unison():
    """Unison with random replacement (per-set draw counts)."""
    import dataclasses

    from repro.dramcache.spec import ComponentSpec
    from repro.sim.registry import DESIGNS, DesignBuildContext
    from repro.utils.units import parse_size

    spec = dataclasses.replace(DESIGNS.resolve("unison").spec,
                               replacement=ComponentSpec("random"))
    paper = parse_size("1GB")
    return spec.build(DesignBuildContext(
        paper_capacity_bytes=paper, scaled_capacity_bytes=paper // 4096,
        scale=4096, num_cores=4))


def _design_token(name):
    from repro.sampling.checkpoints import design_token

    return design_token(name)
