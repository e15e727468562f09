"""Tests for the on-disk warm-state checkpoint store."""

from __future__ import annotations

import marshal
import os
import pickle

import pytest

from repro.sampling.checkpoints import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    checkpoints_enabled,
    design_token,
)
from repro.sampling.runner import WindowedSampler
from repro.sampling.windows import SamplingConfig
from repro.sim.experiment import ExperimentConfig
from repro.sim.factory import make_design
from repro.trace.store import trace_token
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile


@pytest.fixture
def profile():
    return WorkloadProfile(
        name="ckpt-tiny", working_set="2MB", num_code_regions=32,
        footprint_density=0.5, footprint_noise=0.05, singleton_fraction=0.1,
        temporal_reuse=0.2, region_zipf_alpha=0.6, pc_locality_run=3,
        write_fraction=0.25, l2_mpki=20.0,
    )


@pytest.fixture
def config():
    return ExperimentConfig(scale=4096, num_accesses=20_000, num_cores=2,
                            seed=9)


@pytest.fixture
def sampling():
    return SamplingConfig(window_accesses=1000, warmup_accesses=500,
                          checkpoint_accesses=4000, min_windows=2,
                          max_windows=3)


def _key(store, *, trace="t", design="d", start=0, stop=100):
    return store.key(trace=trace, design=design, capacity="1GB", scale=512,
                     num_cores=4, associativity=None, checkpoint_start=start,
                     checkpoint_stop=stop)


class TestStore:
    def test_round_trip(self, tmp_path, profile):
        store = CheckpointStore(tmp_path / "ckpt")
        design = make_design("unison", "1GB", scale=4096, num_cores=2)
        trace = SyntheticWorkload(profile, num_cores=2, seed=1).generate(2000)
        design.warm_up(trace)
        snapshot = design.snapshot_state()

        key = _key(store)
        assert store.load(key) is None  # cold
        assert store.save(key, snapshot)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.design_name == "unison"
        assert set(loaded.state) == set(snapshot.state)

        # Restoring the loaded snapshot reproduces the exact same replay.
        fresh = make_design("unison", "1GB", scale=4096, num_cores=2)
        fresh.restore_state(loaded)
        design.restore_state(snapshot)
        design.run(trace[:500])
        fresh.run(trace[:500])
        assert (fresh.cache_stats.hits, fresh.cache_stats.misses) == (
            design.cache_stats.hits, design.cache_stats.misses)

    def test_key_changes_with_every_identity_field(self, tmp_path):
        store = CheckpointStore(tmp_path)
        base = _key(store)
        assert _key(store, trace="other") != base
        assert _key(store, design="other") != base
        assert _key(store, stop=200) != base

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = _key(store)
        (tmp_path / f"{key}.ckpt").write_bytes(b"not a pickle")
        assert store.load(key) is None

        # Snapshots pickled in the v1/v2 layouts (pickled object graphs),
        # and flat buffers stamped with an older version, are misses as
        # well, never half-compatible hits.
        assert CHECKPOINT_FORMAT_VERSION == 5
        snapshot = make_design("no_cache", "1GB", scale=4096).snapshot_state()
        for version in (1, 2):
            (tmp_path / f"{key}.ckpt").write_bytes(
                pickle.dumps((version, snapshot)))
            assert store.load(key) is None
        for version in (2, 3):
            (tmp_path / f"{key}.ckpt").write_bytes(
                marshal.dumps((version, snapshot.design_name, snapshot.state)))
            assert store.load(key) is None
        store.save(key, snapshot)
        assert store.load(key) is not None

    def test_format_4_entry_is_not_loaded(self, tmp_path):
        """A version-4 file (per-set RNG states, not draw counts) is a miss
        even where its key's file is found."""
        store = CheckpointStore(tmp_path)
        key = _key(store)
        snapshot = make_design("unison", "1GB", scale=4096).snapshot_state()
        (tmp_path / f"{key}.ckpt").write_bytes(
            marshal.dumps((4, snapshot.design_name, snapshot.state)))
        assert store.load(key) is None
        store.save(key, snapshot)
        assert store.load(key) == snapshot

    def test_gc_evicts_lru(self, tmp_path, profile):
        store = CheckpointStore(tmp_path)
        design = make_design("no_cache", "1GB", scale=4096)
        snapshot = design.snapshot_state()
        keys = [_key(store, design=f"d{i}") for i in range(4)]
        for i, key in enumerate(keys):
            store.save(key, snapshot)
            os.utime(store._path(key), (1000 + i, 1000 + i))
        assert len(store) == 4
        reclaimed = store.gc(max_bytes=0)
        assert reclaimed > 0
        assert len(store) == 0

    def test_design_token_distinguishes_compositions(self):
        assert design_token("unison") != design_token("unison-nowp")
        assert design_token("alloy") != design_token("alloy+footprint")

    def test_trace_token_tracks_config(self, profile, config):
        from dataclasses import replace

        base = trace_token(profile, config)
        assert trace_token(profile, replace(config, seed=10)) != base
        assert trace_token(profile, replace(config, num_accesses=1)) != base

    def test_sequence_token_sees_every_record(self, profile):
        """A single-record difference anywhere must change the token."""
        from repro.sampling.checkpoints import sequence_token

        trace = SyntheticWorkload(profile, num_cores=2, seed=1).generate(3000)
        base = sequence_token(trace)
        mutated = list(trace)
        mutated[1717] = mutated[1717]._replace(
            address=mutated[1717].address ^ 64)
        assert sequence_token(mutated) != base
        assert sequence_token(list(trace)) == base

    def test_sequence_token_ignores_the_representation(self, profile):
        """A packed record array and the equal record list share a token,
        and the record token is the repr digest it has always been."""
        import hashlib

        from repro.engine.trace_array import records_to_array
        from repro.sampling.checkpoints import sequence_token

        trace = SyntheticWorkload(profile, num_cores=2, seed=1).generate(500)
        digest = hashlib.sha256()
        for access in trace:
            digest.update(repr(tuple(access)).encode("utf-8"))
        expected = f"sequence:n=500;sha256={digest.hexdigest()}"
        assert sequence_token(trace) == expected
        assert sequence_token(records_to_array(trace)) == expected

    def test_executor_sampled_path_uses_trace_identity(
            self, tmp_path, monkeypatch, profile, config, sampling):
        """The sweep executor injects the canonical trace and must key the
        checkpoint on the generator-versioned identity, not a hash."""
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        from repro.sim.executor import clear_caches, run_trial
        from repro.sim.spec import ExperimentSpec

        clear_caches()
        trial = ExperimentSpec(design="no_cache", workload=profile,
                               capacity="256MB", config=config,
                               sampling=sampling)
        run_trial(trial)
        store = CheckpointStore.default()
        assert len(store) == 1
        # A direct sampler run of the same (workload, config) must hit the
        # executor-written checkpoint: same authoritative key.
        WindowedSampler(sampling, config=config).compare(
            ["no_cache"], profile, "256MB")
        assert len(store) == 1


class TestSamplerIntegration:
    def test_checkpointed_run_bit_identical_to_cold_run(
            self, tmp_path, monkeypatch, profile, config, sampling):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        cold = WindowedSampler(sampling, config=config).compare(
            ["unison", "alloy"], profile, "256MB")
        store = CheckpointStore.default()
        assert store is not None and len(store) == 2  # one per design

        warm = WindowedSampler(sampling, config=config).compare(
            ["unison", "alloy"], profile, "256MB")
        for label in cold.designs:
            assert [w.miss_ratio for w in cold.designs[label].windows] == [
                w.miss_ratio for w in warm.designs[label].windows]
            assert [w.speedup_vs_no_cache
                    for w in cold.designs[label].windows] == [
                w.speedup_vs_no_cache for w in warm.designs[label].windows]

    def test_injected_trace_keys_on_content(self, tmp_path, monkeypatch,
                                            profile, config, sampling):
        """A checkpoint warmed on one injected sequence must not be reused
        for a different sequence under the same (workload, config)."""
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        from repro.workloads.generator import SyntheticWorkload

        trace_a = SyntheticWorkload(profile, num_cores=2,
                                    seed=1).generate(config.num_accesses)
        trace_b = SyntheticWorkload(profile, num_cores=2,
                                    seed=2).generate(config.num_accesses)
        sampler = WindowedSampler(sampling, config=config)
        run_a = sampler.compare(["unison"], profile, "256MB", trace=trace_a)
        store = CheckpointStore.default()
        before = len(store)
        assert before == 1
        run_b = sampler.compare(["unison"], profile, "256MB", trace=trace_b)
        # Different content -> different key -> a second checkpoint, and
        # genuinely different measurements (no silent warm-state reuse).
        assert len(store) == 2
        assert ([w.miss_ratio for w in run_a.designs["unison"].windows]
                != [w.miss_ratio for w in run_b.designs["unison"].windows])
        # Same content replays the existing checkpoint (no third entry).
        sampler.compare(["unison"], profile, "256MB", trace=list(trace_a))
        assert len(store) == 2

    def test_disabled_by_env(self, tmp_path, monkeypatch, profile, config,
                             sampling):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        assert not checkpoints_enabled()
        WindowedSampler(sampling, config=config).compare(
            ["no_cache"], profile, "256MB")
        assert not (tmp_path / "store" / "checkpoints").exists()
