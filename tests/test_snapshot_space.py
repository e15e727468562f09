"""Snapshot/restore and batch-vs-scalar warm state over the autotuner space.

``tests/test_snapshot.py`` covers the registered designs; the autotuner can
emit every composition of :func:`repro.search.space.default_space`, which
adds random and RRIP replacement and MAP-I miss prediction on page and
MissMap tags.  Each candidate is built at a tiny capacity and replayed over
a short trace that overflows it (so every set fills, evicts and writes
back), and must:

* rewind exactly: replay A, snapshot, replay B, restore, replay B again
  gives the same statistics and the same warm-state buffers;
* warm and measure identically on the batch kernel and the scalar path,
  whenever a kernel covers it (all but SRRIP on in-DRAM page tags).
"""

from __future__ import annotations

import pytest

from repro.engine import records_to_array, select_kernel
from repro.engine import set_batch_enabled, warm_design
from repro.search.space import candidate_spec, default_space
from repro.sim.registry import DesignBuildContext
from repro.utils.units import parse_size
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile

#: Paper capacity and scale: a 64KB simulated cache against a 2MB
#: working set.
CAPACITY = "1GB"
SCALE = 16384

COMBOS = default_space().combos()


def _build(combo):
    paper = parse_size(CAPACITY)
    context = DesignBuildContext(paper_capacity_bytes=paper,
                                 scaled_capacity_bytes=paper // SCALE,
                                 scale=SCALE, num_cores=4)
    return candidate_spec(combo).build(context)


def _combo_id(combo) -> str:
    return "/".join(combo[role].describe() for role in
                    ("tags", "hit_predictor", "fetch", "replacement"))


@pytest.fixture(scope="module")
def trace():
    profile = WorkloadProfile(
        name="space-tiny", working_set="2MB", num_code_regions=32,
        footprint_density=0.5, footprint_noise=0.05, singleton_fraction=0.1,
        temporal_reuse=0.2, region_zipf_alpha=0.6, pc_locality_run=3,
        write_fraction=0.25, l2_mpki=20.0,
    )
    return SyntheticWorkload(profile, num_cores=4, seed=11).generate(3000)


def _outcome(design):
    """Everything a measurement reads, plus the full warm state."""
    return (design.stats().as_dict(), design.extra_metrics(),
            design.snapshot_state())


def test_space_size():
    assert len(COMBOS) == 66


@pytest.mark.parametrize("combo", COMBOS, ids=_combo_id)
def test_restore_rewinds_exactly(combo, trace):
    design = _build(combo)
    design.run(trace[:1000])
    snapshot = design.snapshot_state()

    design.run(trace[1000:2000])
    stats, metrics, state = _outcome(design)
    assert design.cache_stats.pages_evicted > 0  # the trace overflows it

    design.run(trace[2000:])  # state the restore must erase
    design.restore_state(snapshot)
    assert design.snapshot_state().differing_buffers(snapshot) == []
    design.run(trace[1000:2000])
    again_stats, again_metrics, again_state = _outcome(design)
    assert again_stats == stats
    assert again_metrics == metrics
    assert again_state.differing_buffers(state) == []


KERNEL_COMBOS = [combo for combo in COMBOS
                 if select_kernel(_build(combo)) is not None]


def test_kernel_coverage():
    # Every composition the autotuner can emit runs on a kernel, except
    # SRRIP on in-DRAM page tags, which select_kernel keeps scalar.
    scalar = [combo for combo in COMBOS if combo not in KERNEL_COMBOS]
    assert len(KERNEL_COMBOS) == 57
    assert len(scalar) == 9
    assert {(combo["tags"].kind, combo["replacement"].kind)
            for combo in scalar} == {("dram-page", "rrip")}


@pytest.mark.parametrize("combo", KERNEL_COMBOS, ids=_combo_id)
def test_kernel_matches_scalar(combo, trace):
    scalar = _build(combo)
    batch = _build(combo)
    scalar.warm_up(trace[:1500])
    try:
        set_batch_enabled(True)
        assert warm_design(batch, records_to_array(trace[:1500])) == "batch"
        assert batch.snapshot_state().differing_buffers(
            scalar.snapshot_state()) == []
        # A measured replay, half from records and half from an array.
        batch.run(trace[1500:2200])
        batch.run(records_to_array(trace[2200:]))
    finally:
        set_batch_enabled(None)
    for request in trace[1500:]:
        scalar.access(request)
    assert batch.cache_stats.pages_evicted > 0
    assert _outcome(batch)[:2] == _outcome(scalar)[:2]
    assert batch.snapshot_state().differing_buffers(
        scalar.snapshot_state()) == []
    # The kernels' per-frame address tables are geometry, not warm state.
    assert batch.snapshot_state().state.keys() == (
        _build(combo).snapshot_state().state.keys())
