"""Shared fixtures for the test suite.

Fixtures build deliberately tiny configurations (a few DRAM rows, short
traces) so each test runs in milliseconds while still exercising the same
code paths the full-scale experiments use.
"""

from __future__ import annotations

import os

import pytest

from repro.trace.record import AccessType, MemoryAccess
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_store(tmp_path_factory):
    """Point the on-disk trace store at a per-session temp directory.

    Unit tests must not read from or write into the user's persistent
    ``~/.cache/repro/traces`` (a stale entry there could mask a generator
    change; writes would pollute it with tiny test traces).
    """
    root = tmp_path_factory.mktemp("trace-store")
    previous = os.environ.get("REPRO_TRACE_STORE")
    os.environ["REPRO_TRACE_STORE"] = str(root)
    yield
    if previous is None:
        os.environ.pop("REPRO_TRACE_STORE", None)
    else:
        os.environ["REPRO_TRACE_STORE"] = previous


@pytest.fixture
def tiny_profile() -> WorkloadProfile:
    """A small, fast workload profile for functional tests."""
    return WorkloadProfile(
        name="tiny",
        working_set="2MB",
        num_code_regions=32,
        footprint_density=0.5,
        footprint_noise=0.05,
        singleton_fraction=0.1,
        temporal_reuse=0.2,
        region_zipf_alpha=0.6,
        pc_locality_run=3,
        write_fraction=0.25,
        l2_mpki=20.0,
    )


@pytest.fixture
def tiny_trace(tiny_profile) -> list:
    """A short deterministic trace from the tiny profile."""
    workload = SyntheticWorkload(tiny_profile, num_cores=4, seed=7)
    return workload.generate(2000)


def make_access(address: int, pc: int = 0x400100, write: bool = False,
                core: int = 0, timestamp: int = 0) -> MemoryAccess:
    """Helper used across test modules to build one request."""
    return MemoryAccess(
        address=address,
        pc=pc,
        access_type=AccessType.WRITE if write else AccessType.READ,
        core_id=core,
        timestamp=timestamp,
    )


@pytest.fixture
def access_factory():
    """Expose :func:`make_access` as a fixture."""
    return make_access
