"""Tests for the vectorized batch engine (repro.engine).

The batch engine's contract is *bit identity*: warming a design through the
fused kernels must leave it in exactly the state the scalar
``warm_up``-then-reset path produces, and a measured replay must count
exactly the statistics per-request ``access`` calls count, for every
registered composition, regardless of how the stream is chopped into
batches.  These tests
enforce the contract with buffer-by-buffer :class:`StateSnapshot`
comparison (:meth:`StateSnapshot.differing_buffers`, the strictest equality
the models expose), and cover the enablement switches and the bulk
``read_array`` decode paths.
"""

from __future__ import annotations

import gzip
import json
import random

import pytest

from repro.engine import (
    batch_enabled,
    fallback_reason,
    records_to_array,
    replay_design,
    select_kernel,
    set_batch_enabled,
    warm_design,
)
from repro.sim.factory import design_names, make_design
from repro.trace.binfmt import write_trace_bin

#: Paper capacity / scale used by the equivalence tests: large enough that
#: pages conflict, evict, and write back within the tiny trace.
CAPACITY = "256MB"
SCALE = 4096


@pytest.fixture(autouse=True)
def _reset_batch_override(monkeypatch):
    """Leave the process-wide batch switch untouched by each test."""
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    yield
    set_batch_enabled(None)


def _differing(a, b) -> list:
    """Warm-state buffers on which designs ``a`` and ``b`` disagree."""
    return a.snapshot_state().differing_buffers(b.snapshot_state())


def _warm_stream(trace):
    """The batch input: a packed record array."""
    return records_to_array(trace)


class TestSnapshotEquivalence:
    """Batch warming is bit-identical to scalar warming, per composition."""

    @pytest.mark.parametrize("name", design_names())
    def test_batch_matches_scalar(self, name, tiny_trace):
        scalar = make_design(name, CAPACITY, scale=SCALE)
        batch = make_design(name, CAPACITY, scale=SCALE)

        scalar.warm_up(tiny_trace)
        engine = warm_design(batch, _warm_stream(tiny_trace))

        assert engine in ("batch", "scalar")
        if select_kernel(batch) is not None:
            assert engine == "batch"
        assert _differing(scalar, batch) == []

    @pytest.mark.parametrize("name", design_names())
    def test_replay_matches_scalar(self, name, tiny_trace):
        """A measured replay counts every statistic the scalar path does."""
        half = len(tiny_trace) // 2
        scalar = make_design(name, CAPACITY, scale=SCALE)
        batch = make_design(name, CAPACITY, scale=SCALE)
        scalar.warm_up(tiny_trace[:half])
        for request in tiny_trace[half:]:
            scalar.access(request)

        warm_design(batch, _warm_stream(tiny_trace[:half]))
        assert replay_design(batch, list(tiny_trace[half:])) == "batch"
        assert batch.stats().as_dict() == scalar.stats().as_dict()
        assert batch.extra_metrics() == scalar.extra_metrics()
        assert _differing(scalar, batch) == []

    @pytest.mark.parametrize("splits_seed", [0, 1, 2])
    def test_batch_boundaries_do_not_matter(self, splits_seed, tiny_trace):
        """Chopping the warm stream at arbitrary points changes nothing."""
        whole = make_design("unison", CAPACITY, scale=SCALE)
        chunked = make_design("unison", CAPACITY, scale=SCALE)

        warm_design(whole, _warm_stream(tiny_trace))

        rng = random.Random(splits_seed)
        cuts = sorted(rng.sample(range(1, len(tiny_trace)),
                                 rng.randint(1, 7)))
        bounds = [0] + cuts + [len(tiny_trace)]
        for lo, hi in zip(bounds, bounds[1:]):
            warm_design(chunked, _warm_stream(tiny_trace[lo:hi]))

        assert _differing(whole, chunked) == []

    def test_empty_stream_is_a_no_op(self):
        design = make_design("unison", CAPACITY, scale=SCALE)
        before = design.snapshot_state()
        warm_design(design, _warm_stream([]))
        assert design.snapshot_state().differing_buffers(before) == []


class TestEnablement:
    """REPRO_BATCH and set_batch_enabled gate the fused kernels."""

    def test_enabled_by_default(self):
        assert batch_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", " Off "])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH", value)
        assert not batch_enabled()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        set_batch_enabled(True)
        assert batch_enabled()
        set_batch_enabled(None)
        assert not batch_enabled()

    def test_disabled_falls_back_to_scalar(self, tiny_trace):
        set_batch_enabled(False)
        design = make_design("unison", CAPACITY, scale=SCALE)
        assert warm_design(design, list(tiny_trace)) == "scalar"
        assert replay_design(design, list(tiny_trace)) == "scalar"
        assert fallback_reason(design) == "REPRO_BATCH=0"
        set_batch_enabled(None)
        assert fallback_reason(design) is None

    def test_scalar_fallback_is_still_correct(self, tiny_trace):
        set_batch_enabled(False)
        scalar = make_design("alloy", CAPACITY, scale=SCALE)
        fallback = make_design("alloy", CAPACITY, scale=SCALE)
        scalar.warm_up(tiny_trace)
        warm_design(fallback, _warm_stream(tiny_trace))
        assert _differing(scalar, fallback) == []

    def test_warming_records_still_works(self, tiny_trace):
        """API callers may warm from a record list, whatever engine runs."""
        scalar = make_design("unison", CAPACITY, scale=SCALE)
        other = make_design("unison", CAPACITY, scale=SCALE)
        scalar.warm_up(tiny_trace)
        warm_design(other, list(tiny_trace))
        assert _differing(scalar, other) == []


class TestReadArray:
    """Bulk decode paths return exactly what the scalar decode returns."""

    def _written(self, tmp_path, tiny_trace, codec):
        path = tmp_path / f"trace-{codec}.rptr"
        write_trace_bin(path, tiny_trace, codec=codec)
        return path

    @pytest.mark.parametrize("codec", ["none", "gzip"])
    def test_window_readers(self, tmp_path, tiny_trace, codec):
        from repro.sampling.seekable import FileWindows, InMemoryWindows

        memory = InMemoryWindows(tiny_trace)
        disk = FileWindows(self._written(tmp_path, tiny_trace, codec),
                           limit=1800)
        for start, stop in [(0, 50), (123, 1234), (1790, 1800),
                            (0, 1800), (40, 40)]:
            assert (disk.read_array(start, stop).tobytes()
                    == memory.read_array(start, stop).tobytes())
        # The provider honours its limit when clipping array reads too.
        assert (disk.read_array(1700, 5000).tobytes()
                == records_to_array(tiny_trace[1700:1800]).tobytes())
        disk.close()

    def test_window_providers(self, tmp_path, tiny_trace):
        from repro.sampling.seekable import InMemoryWindows

        memory = InMemoryWindows(tiny_trace)
        assert (memory.read_array(100, 900).tobytes()
                == records_to_array(tiny_trace[100:900]).tobytes())
        assert (memory.read_array(1990, 99999).tobytes()
                == records_to_array(tiny_trace[1990:]).tobytes())

    def test_decode_roundtrip(self, tiny_trace):
        from repro.engine import array_to_records, decode_array
        from repro.trace.binfmt import RECORD
        from repro.trace.record import AccessType

        blob = b"".join(
            RECORD.pack(r.address, r.pc, r.timestamp, r.core_id,
                        1 if r.access_type is AccessType.WRITE else 0)
            for r in tiny_trace[:64]
        )
        arr = decode_array(blob)
        assert array_to_records(arr) == tiny_trace[:64]
        assert records_to_array(tiny_trace[:64]).tobytes() == blob


class TestSampledSweepByteEquality:
    """The sampled hot path yields byte-identical results either way."""

    @pytest.fixture
    def sampler(self):
        from repro.sampling import SamplingConfig, WindowedSampler
        from repro.sim.experiment import ExperimentConfig

        config = ExperimentConfig(scale=4096, num_accesses=24_000,
                                  num_cores=4, seed=5)
        sampling = SamplingConfig(window_accesses=1_000,
                                  warmup_accesses=1_000,
                                  checkpoint_accesses=4_000,
                                  min_windows=3, max_windows=4)
        return WindowedSampler(sampling, config=config)

    def test_resultsets_byte_equal_with_telemetry(self, sampler, tiny_profile,
                                                  tmp_path, monkeypatch):
        from repro.obs.core import start_run

        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "obs"))

        set_batch_enabled(True)
        with start_run("trial", kind_detail="sample-batch"):
            with_batch = sampler.compare(["unison", "alloy"], tiny_profile,
                                         "1GB")
        set_batch_enabled(False)
        with start_run("trial", kind_detail="sample-scalar"):
            without = sampler.compare(["unison", "alloy"], tiny_profile,
                                      "1GB")

        assert with_batch == without
        batch_json = tmp_path / "batch.json"
        scalar_json = tmp_path / "scalar.json"
        with_batch.to_resultset().to_json(batch_json)
        without.to_resultset().to_json(scalar_json)
        assert batch_json.read_bytes() == scalar_json.read_bytes()

        # The spans carry the engine tag and the batch-size counter: the
        # checkpoint prologue tags the "warmup" phase, the per-window
        # re-warms tag the enclosing "measure" phase.
        counters = []
        for manifest in (tmp_path / "obs" / "manifests").glob("*.jsonl"):
            for line in manifest.read_text().splitlines():
                record = json.loads(line)
                if (record.get("event") == "phase"
                        and record.get("name") in ("warmup", "measure")):
                    counters.append(record.get("counters") or {})
        assert counters, "no warmup/measure spans reached the manifests"
        batched = [c for c in counters if c.get("engine_batch")]
        assert batched
        assert any(c.get("batch_accesses", 0) > 0 for c in batched)
        assert any(c.get("engine_scalar") for c in counters)
