"""Tests for the on-disk TraceStore."""

import os

import pytest

from repro.engine.trace_array import array_to_records, records_to_array
from repro.trace.binfmt import read_header
from repro.trace.store import (
    TraceStore,
    configured_root,
    default_root,
    trace_key_string,
)
from repro.workloads.generator import GENERATOR_VERSION
from repro.workloads.profile import WorkloadProfile


#: Bytes of the binary trace header (the payload follows it).
HEADER_SIZE = 20


def make_trace(n):
    from repro.trace.record import MemoryAccess

    return [MemoryAccess(address=i * 64, pc=0x400000 + i, timestamp=i)
            for i in range(n)]


@pytest.fixture
def profile(tiny_profile) -> WorkloadProfile:
    return tiny_profile


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(root=tmp_path / "store")


class TestKeys:
    def test_key_is_deterministic(self, store, profile):
        assert (store.key(profile, 128, 4, 1, 1000)
                == store.key(profile, 128, 4, 1, 1000))

    @pytest.mark.parametrize("kwargs", [
        dict(scale=256), dict(num_cores=8), dict(seed=2),
        dict(num_accesses=2000),
    ])
    def test_key_depends_on_every_run_parameter(self, store, profile, kwargs):
        base = dict(scale=128, num_cores=4, seed=1, num_accesses=1000)
        changed = dict(base, **kwargs)
        assert (store.key(profile, **base) != store.key(profile, **changed))

    def test_key_depends_on_profile_fields(self, store, profile):
        import dataclasses

        other = dataclasses.replace(profile, footprint_density=0.9)
        assert (store.key(profile, 128, 4, 1, 1000)
                != store.key(other, 128, 4, 1, 1000))

    def test_key_embeds_generator_version(self, profile):
        identity = trace_key_string(profile, 128, 4, 1, 1000)
        assert f"generator=v{GENERATOR_VERSION}" in identity

    def test_key_is_a_safe_filename(self, store, profile):
        key = store.key(profile, 128, 4, 1, 1000)
        assert "/" not in key and " " not in key
        assert store.path_for(key).parent == store.root


class TestHitMiss:
    def test_miss_then_hit(self, store, profile):
        key = store.key(profile, 128, 4, 1, 100)
        assert store.load(key) is None
        assert store.stats.misses == 1 and store.stats.hits == 0

        trace = make_trace(100)
        store.put(key, trace, num_cores=4)
        assert store.stats.writes == 1
        assert store.contains(key)
        assert array_to_records(store.load(key)) == trace
        assert store.stats.hits == 1

    def test_put_chunks_collect(self, store, profile):
        key = store.key(profile, 128, 4, 1, 100)
        trace = make_trace(100)
        packed = records_to_array(trace)
        chunks = [packed[:40], packed[40:80], packed[80:]]
        collected = store.put_chunks(key, chunks, num_cores=4, collect=True)
        assert array_to_records(collected) == trace
        assert array_to_records(store.load(key)) == trace

    def test_put_chunks_without_collect(self, store, profile):
        key = store.key(profile, 128, 4, 1, 10)
        assert store.put_chunks(key, [make_trace(10)]) is None
        assert store.contains(key)

    def test_entries_are_raw_packed_records(self, store, profile):
        from repro.trace.binfmt import RECORD

        key = store.key(profile, 128, 4, 1, 3000)
        packed = records_to_array(make_trace(3000))
        store.put_chunks(key, [packed], num_cores=4)
        path = store.path_for(key)
        assert read_header(path).codec == "none"
        blob = path.read_bytes()
        assert len(blob) == HEADER_SIZE + RECORD.size * 3000
        assert blob[HEADER_SIZE:] == packed.tobytes()
        assert list(store.root.glob("*.rpti")) == []

    def test_gzip_entry_is_one_miss_and_comes_back_raw(self, monkeypatch,
                                                       tmp_path, tiny_profile):
        """An entry an older store gzipped is dropped and rewritten raw."""
        from repro.sim.executor import (cached_trace, clear_caches,
                                        get_trace_store)
        from repro.sim.experiment import ExperimentConfig, ExperimentRunner
        from repro.trace.binfmt import write_trace_bin

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "old"))
        clear_caches()
        config = ExperimentConfig(scale=4096, num_accesses=2000, num_cores=2)
        runner = ExperimentRunner(config)
        expected = runner.build_trace(tiny_profile)
        store = get_trace_store()
        path = store.path_for(store.key(tiny_profile, 4096, 2, config.seed,
                                        2000))
        store.root.mkdir(parents=True)
        write_trace_bin(path, array_to_records(expected), num_cores=2,
                        codec="gzip")
        try:
            trace = cached_trace(runner, tiny_profile)
        finally:
            clear_caches()
        assert trace.tobytes() == expected.tobytes()
        assert (store.stats.misses, store.stats.hits,
                store.stats.writes) == (1, 0, 1)
        assert read_header(path).codec == "none"
        assert path.read_bytes()[HEADER_SIZE:] == expected.tobytes()
        assert list(store.root.glob("*.rpti")) == []

    @pytest.mark.parametrize("flags", [0x0002, 0x0004])
    def test_unknown_flag_bits_entry_is_one_miss(self, store, profile, flags):
        key = store.key(profile, 128, 4, 1, 50)
        store.put(key, make_trace(50))
        path = store.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[6:8] = flags.to_bytes(2, "little")  # the header's flags field
        path.write_bytes(bytes(blob))
        assert store.load(key) is None
        assert (store.stats.misses, store.stats.hits) == (1, 0)
        assert not path.exists()  # quarantined

    def test_corrupt_entry_treated_as_miss(self, store, profile):
        key = store.key(profile, 128, 4, 1, 10)
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"garbage that is not a trace")
        assert store.load(key) is None
        assert not store.path_for(key).exists()  # quarantined

    def test_corrupt_payload_treated_as_miss(self, store, profile):
        """Valid header + truncated raw payload must not crash a sweep."""
        from repro.trace.binfmt import RECORD

        key = store.key(profile, 128, 4, 1, 50)
        store.put(key, make_trace(50))
        path = store.path_for(key)
        blob = path.read_bytes()
        path.write_bytes(blob[:HEADER_SIZE + RECORD.size * 25])  # half
        hits_before = store.stats.hits
        assert store.load(key) is None
        assert store.stats.hits == hits_before  # counted as a miss
        assert not path.exists()  # quarantined

    def test_load_returns_the_packed_record_array(self, store, profile):
        from repro.engine.trace_array import RECORD_DTYPE

        key = store.key(profile, 128, 4, 1, 30)
        trace = make_trace(30)
        packed = records_to_array(trace)
        collected = store.put_chunks(key, [packed[:12], packed[12:]],
                                     collect=True)
        loaded = store.load(key)
        for array in (collected, loaded):
            assert array.dtype == RECORD_DTYPE
            assert array.tobytes() == records_to_array(trace).tobytes()

    @pytest.mark.parametrize("damage", ["partial-record", "bad-access-type",
                                        "short-count"])
    def test_damaged_records_treated_as_miss(self, store, profile, damage):
        """Payloads that read back but hold no valid trace are dropped."""
        from repro.trace.binfmt import RECORD

        key = store.key(profile, 128, 4, 1, 20)
        store.put(key, make_trace(20))
        path = store.path_for(key)
        blob = bytearray(path.read_bytes())
        if damage == "partial-record":
            blob += b"\x00" * (RECORD.size - 1)
        elif damage == "bad-access-type":
            blob[HEADER_SIZE + RECORD.size - 1] = 7  # first record's type
        else:
            del blob[-RECORD.size:]
        path.write_bytes(bytes(blob))
        assert store.load(key) is None
        assert not path.exists()  # quarantined

    def test_no_partial_files_after_put(self, store, profile):
        key = store.key(profile, 128, 4, 1, 10)
        store.put(key, make_trace(10))
        # Only the entry may remain -- never a temp file from the
        # atomic-rename dance, nor a chunk-index sidecar.
        assert list(store.root.iterdir()) == [store.path_for(key)]


class TestEviction:
    def test_lru_eviction_under_budget(self, tmp_path, profile):
        store = TraceStore(root=tmp_path / "store")
        keys = [store.key(profile, 128, 4, seed, 200) for seed in (1, 2, 3)]
        for index, key in enumerate(keys):
            store.put(key, make_trace(200))
            os.utime(store.path_for(key), (1000 + index, 1000 + index))
        entry_bytes = store.total_bytes() // 3

        # Touch the first entry so it is most recently used, then shrink.
        os.utime(store.path_for(keys[0]), (2000, 2000))
        store.evict_to(entry_bytes * 2)
        assert store.contains(keys[0])
        assert not store.contains(keys[1])
        assert store.stats.evictions >= 1

    def test_budget_enforced_on_write(self, tmp_path, profile):
        store = TraceStore(root=tmp_path / "store", max_bytes=1)
        key1 = store.key(profile, 128, 4, 1, 100)
        key2 = store.key(profile, 128, 4, 2, 100)
        store.put(key1, make_trace(100))
        store.put(key2, make_trace(100))
        # The just-written entry survives even when over budget.
        assert store.contains(key2)
        assert not store.contains(key1)

    def test_clear(self, store, profile):
        for seed in range(3):
            store.put(store.key(profile, 128, 4, seed, 10), make_trace(10))
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0 and store.total_bytes() == 0


class TestEnvironment:
    def test_default_root_used_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        assert configured_root() == default_root()

    def test_env_overrides_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "custom"))
        assert configured_root() == tmp_path / "custom"
        assert TraceStore().root == tmp_path / "custom"

    @pytest.mark.parametrize("value", ["off", "OFF", "none", "0", "disabled"])
    def test_env_disables_store(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE_STORE", value)
        assert configured_root() is None
        with pytest.raises(ValueError, match="disabled"):
            TraceStore()

    def test_xdg_cache_home_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_root() == tmp_path / "xdg" / "repro" / "traces"

    def test_entries_num_cores_header(self, store, profile):
        key = store.key(profile, 128, 4, 1, 20)
        store.put(key, make_trace(20), num_cores=4)
        assert read_header(store.path_for(key)).num_cores == 4
