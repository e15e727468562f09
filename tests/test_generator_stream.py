"""Stream identity of the synthetic trace generator.

``tests/data/generator_streams.json`` pins the sha256 of the packed
payload (:data:`~repro.engine.trace_array.RECORD_DTYPE` bytes, what a trace
store entry holds) of every shipped profile at seeds 0-19, plus edge cases
of the chunking and of the record API.  A change to the generator that
moves any stream fails here; such a change must bump
:data:`~repro.workloads.generator.GENERATOR_VERSION` (so stores and CI
caches drop their stale traces) and re-record the digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.trace_array import RECORD_DTYPE, records_to_array
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.workloads.cloudsuite import ALL_WORKLOADS
from repro.workloads.generator import (DEFAULT_CHUNK_SIZE, GENERATOR_VERSION,
                                       SyntheticWorkload)

PINNED = json.loads(
    (Path(__file__).parent / "data" / "generator_streams.json").read_text())

PROFILE_NAMES = [profile.name for profile in ALL_WORKLOADS]


def _scaled(name):
    profile = next(p for p in ALL_WORKLOADS if p.name == name)
    config = ExperimentConfig(scale=PINNED["scale"])
    return ExperimentRunner(config).scaled_profile(profile)


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        assert array.dtype == RECORD_DTYPE
        sha.update(array.tobytes())
    return sha.hexdigest()


def _records_digest(records) -> str:
    return _digest([records_to_array(records)])


def test_pinned_data_covers_every_profile():
    assert GENERATOR_VERSION == 1
    assert sorted(PINNED["streams"]) == sorted(PROFILE_NAMES)
    assert sorted(PINNED["cases"]) == sorted(PROFILE_NAMES)
    # The pinned length spans a chunk boundary.
    assert PINNED["count"] > DEFAULT_CHUNK_SIZE


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_packed_streams_match_pinned_digests(name):
    profile = _scaled(name)
    digests = [
        _digest(SyntheticWorkload(profile, num_cores=PINNED["num_cores"],
                                  seed=seed).iter_chunks(PINNED["count"]))
        for seed in range(20)
    ]
    assert digests == PINNED["streams"][name]


@pytest.mark.parametrize("name", PROFILE_NAMES)
class TestEdgeCases:
    def test_core_count_not_dividing_the_chunk(self, name):
        workload = SyntheticWorkload(_scaled(name), num_cores=12, seed=3)
        assert (_records_digest(workload.generate(12345))
                == PINNED["cases"][name]["cores12"])

    def test_fewer_accesses_than_cores(self, name):
        workload = SyntheticWorkload(_scaled(name), num_cores=16, seed=3)
        assert (_records_digest(workload.generate(5))
                == PINNED["cases"][name]["count5"])

    def test_consecutive_generate_calls_restart_at_core_zero(self, name):
        workload = SyntheticWorkload(_scaled(name), num_cores=16, seed=3)
        first = workload.generate(1001)
        second = workload.generate(2999)
        assert second[0].core_id == 0
        assert ([_records_digest(first), _records_digest(second)]
                == PINNED["cases"][name]["generate_twice"])

    def test_small_chunks(self, name):
        workload = SyntheticWorkload(_scaled(name), num_cores=16, seed=3)
        chunks = list(workload.iter_chunks(5000, chunk_size=777))
        pinned = PINNED["cases"][name]["small_chunks"]
        assert [len(chunk) for chunk in chunks] == pinned["lengths"]
        assert _digest(chunks) == pinned["digest"]


def test_zero_accesses_yield_no_chunks():
    workload = SyntheticWorkload(_scaled("Web Search"), seed=1)
    assert list(workload.iter_chunks(0)) == []
    assert workload.generate(0) == []
