"""Tests for workload profiles and the synthetic trace generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.record import MemoryAccess
from repro.workloads.cloudsuite import (
    ALL_WORKLOADS,
    CLOUDSUITE_WORKLOADS,
    data_analytics,
    tpch_queries,
    web_search,
    workload_by_name,
)
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile


class TestWorkloadProfile:
    def test_derived_quantities(self):
        profile = WorkloadProfile(name="x", working_set="4MB")
        assert profile.working_set_bytes == 4 * 1024 ** 2
        assert profile.num_regions == 1024
        assert profile.blocks_per_region == 64

    def test_scaled_preserves_other_fields(self):
        profile = web_search().scaled("1MB")
        assert profile.working_set_bytes == 1024 ** 2
        assert profile.name == "Web Search"
        assert profile.footprint_density == web_search().footprint_density

    @pytest.mark.parametrize("field,value", [
        ("footprint_density", 0.0),
        ("footprint_density", 1.5),
        ("footprint_noise", -0.1),
        ("singleton_fraction", 2.0),
        ("temporal_reuse", -1.0),
        ("write_fraction", 1.5),
        ("region_zipf_alpha", -0.1),
        ("num_code_regions", 0),
        ("pc_locality_run", 0),
        ("l2_mpki", 0.0),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        kwargs = {"name": "x", "working_set": "1MB", field: value}
        with pytest.raises(ValueError):
            WorkloadProfile(**kwargs)

    def test_region_size_must_be_block_multiple(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", working_set="1MB", region_size=100)


class TestCloudSuiteProfiles:
    def test_six_workloads_total(self):
        assert len(CLOUDSUITE_WORKLOADS) == 5
        assert len(ALL_WORKLOADS) == 6

    def test_lookup_by_name_case_insensitive(self):
        assert workload_by_name("web search").name == "Web Search"
        assert workload_by_name("TPC-H Queries").name == "TPC-H Queries"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            workload_by_name("SPEC CPU")

    def test_data_analytics_has_lowest_spatial_locality(self):
        densities = {w.name: w.footprint_density for w in ALL_WORKLOADS}
        assert min(densities, key=densities.get) == "Data Analytics"

    def test_tpch_has_largest_working_set(self):
        sizes = {w.name: w.working_set_bytes for w in ALL_WORKLOADS}
        assert max(sizes, key=sizes.get) == "TPC-H Queries"
        assert tpch_queries().working_set_bytes > 8 * 1024 ** 3

    def test_all_profiles_validate(self):
        for profile in ALL_WORKLOADS:
            assert profile.num_regions > 0
            assert 0 < profile.footprint_density <= 1


class TestSyntheticWorkload:
    def test_deterministic_for_same_seed(self, tiny_profile):
        a = SyntheticWorkload(tiny_profile, num_cores=4, seed=3).generate(500)
        b = SyntheticWorkload(tiny_profile, num_cores=4, seed=3).generate(500)
        assert a == b

    def test_different_seeds_differ(self, tiny_profile):
        a = SyntheticWorkload(tiny_profile, num_cores=4, seed=3).generate(500)
        b = SyntheticWorkload(tiny_profile, num_cores=4, seed=4).generate(500)
        assert a != b

    def test_requested_count_produced(self, tiny_profile):
        assert len(SyntheticWorkload(tiny_profile).generate(777)) == 777

    def test_negative_count_rejected(self, tiny_profile):
        with pytest.raises(ValueError):
            SyntheticWorkload(tiny_profile).generate(-1)

    def test_invalid_core_count_rejected(self, tiny_profile):
        with pytest.raises(ValueError):
            SyntheticWorkload(tiny_profile, num_cores=0)

    def test_core_ids_must_fit_the_packed_u16(self, tiny_profile):
        # Rejected at construction, before any per-core state is built.
        with pytest.raises(ValueError, match="u16"):
            SyntheticWorkload(tiny_profile, num_cores=65537)

    def test_addresses_stay_within_working_set(self, tiny_profile):
        trace = SyntheticWorkload(tiny_profile, seed=1).generate(2000)
        limit = tiny_profile.num_regions * tiny_profile.region_size
        assert all(0 <= a.address < limit for a in trace)

    def test_all_cores_emit_accesses(self, tiny_profile):
        trace = SyntheticWorkload(tiny_profile, num_cores=8, seed=1).generate(4000)
        assert {a.core_id for a in trace} == set(range(8))

    def test_timestamps_non_negative_and_bounded(self, tiny_profile):
        trace = SyntheticWorkload(tiny_profile, seed=1).generate(1000)
        assert all(a.timestamp >= 0 for a in trace)

    def test_write_fraction_roughly_respected(self, tiny_profile):
        trace = SyntheticWorkload(tiny_profile, seed=1).generate(8000)
        writes = sum(1 for a in trace if a.is_write)
        assert abs(writes / len(trace) - tiny_profile.write_fraction) < 0.08

    def test_spatial_locality_scales_with_density(self):
        def page_spread(profile):
            trace = SyntheticWorkload(profile, num_cores=1, seed=5).generate(5000)
            pages = {a.address // 960 for a in trace}
            return len(pages) / len(trace)

        dense = WorkloadProfile(name="dense", working_set="2MB",
                                footprint_density=0.9, singleton_fraction=0.0)
        sparse = WorkloadProfile(name="sparse", working_set="2MB",
                                 footprint_density=0.15, singleton_fraction=0.0)
        # Dense traversals touch many blocks per page, so they visit fewer
        # distinct pages per access than sparse ones.
        assert page_spread(dense) < page_spread(sparse)

    def test_pc_footprint_correlation_exists(self, tiny_profile):
        """The same PC should touch a similar number of blocks per region visit."""
        trace = SyntheticWorkload(tiny_profile, num_cores=1, seed=2).generate(6000)
        from collections import defaultdict

        per_pc_regions = defaultdict(lambda: defaultdict(set))
        for access in trace:
            region = access.address // tiny_profile.region_size
            offset = (access.address % tiny_profile.region_size) // 64
            per_pc_regions[access.pc][region].add(offset)
        # For PCs with several traversals, footprint sizes should cluster.
        consistent = 0
        candidates = 0
        for pc, regions in per_pc_regions.items():
            sizes = [len(offsets) for offsets in regions.values()]
            if len(sizes) >= 3:
                candidates += 1
                spread = max(sizes) - min(sizes)
                if spread <= max(4, 0.5 * max(sizes)):
                    consistent += 1
        assert candidates > 0
        assert consistent / candidates > 0.5

    def test_iterator_interface_matches_generate(self, tiny_profile):
        workload_a = SyntheticWorkload(tiny_profile, seed=9)
        workload_b = SyntheticWorkload(tiny_profile, seed=9)
        assert list(workload_a.accesses(300)) == workload_b.generate(300)

    @given(st.integers(1, 6), st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_property_counts_and_types(self, cores, seed):
        profile = WorkloadProfile(name="p", working_set="1MB",
                                  num_code_regions=16)
        trace = SyntheticWorkload(profile, num_cores=cores, seed=seed).generate(200)
        assert len(trace) == 200
        assert all(isinstance(a, MemoryAccess) for a in trace)
        assert all(a.core_id < cores for a in trace)
