"""Differential harness: the fused kernels against the scalar engine.

The batch kernels (:mod:`repro.engine.kernels`) serve warming *and* timed
replay, so every statistic a measurement reads must come out of them
exactly as the scalar ``access``/``_service_request`` path produces it.
Hypothesis draws a kernel-covered composition from the autotuner's
:func:`repro.search.space.default_space`, a slice of a short synthetic
trace, a warm/measure split, and batch boundaries (each batch a record
list or a numpy record array).  Kernel and scalar runs must then agree,
compared by ``repr`` (exact for this plain data: it tells ``True`` from
``1`` and sees dict order), on:

* the warm state after warming;
* the measured ``stats().as_dict()`` and ``extra_metrics()``;
* the warm state after the measurement replay;
* and, on the kernel side, snapshot -> disturb -> restore -> replay must
  reproduce the straight replay.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import records_to_array, select_kernel, set_batch_enabled
from repro.search.space import candidate_spec, default_space
from repro.sim.registry import DesignBuildContext
from repro.utils.units import parse_size
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile

#: A 64KB simulated cache against 2MB working sets: every set fills,
#: evicts and writes back within a few hundred accesses.
CAPACITY = "1GB"
SCALE = 16384

COMBOS = default_space().combos()


def _trace(name, density, writes, seed):
    profile = WorkloadProfile(
        name=name, working_set="2MB", num_code_regions=32,
        footprint_density=density, footprint_noise=0.05,
        singleton_fraction=0.1, temporal_reuse=0.2, region_zipf_alpha=0.6,
        pc_locality_run=3, write_fraction=writes, l2_mpki=20.0,
    )
    return SyntheticWorkload(profile, num_cores=4, seed=seed).generate(2400)


#: A dense, read-mostly trace and a sparse, write-heavy one.
TRACES = (_trace("diff-dense", 0.6, 0.1, 3),
          _trace("diff-sparse", 0.2, 0.35, 4))


def _build(combo):
    paper = parse_size(CAPACITY)
    context = DesignBuildContext(paper_capacity_bytes=paper,
                                 scaled_capacity_bytes=paper // SCALE,
                                 scale=SCALE, num_cores=4)
    return candidate_spec(combo).build(context)


KERNEL_COMBOS = [combo for combo in COMBOS
                 if select_kernel(_build(combo)) is not None]


@st.composite
def _batches(draw, records):
    """``records`` cut at drawn boundaries; each batch a list or an array."""
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(records) - 1)),
                               max_size=4)))
    bounds = [0, *cuts, len(records)]
    batches = []
    for start, stop in zip(bounds, bounds[1:]):
        part = records[start:stop]
        batches.append(records_to_array(part) if draw(st.booleans())
                       else part)
    return batches


@st.composite
def _case(draw):
    combo = draw(st.sampled_from(KERNEL_COMBOS))
    trace = draw(st.sampled_from(TRACES))
    start = draw(st.integers(0, 600))
    stop = draw(st.integers(start + 600, len(trace)))
    split = draw(st.integers(start + 300, stop - 200))
    warm, measure = trace[start:split], trace[split:stop]
    return (combo, warm, measure, draw(_batches(warm)),
            draw(_batches(measure)), draw(_batches(measure)))


def _outcome(design):
    return (repr(design.stats().as_dict()), repr(design.extra_metrics()),
            design.snapshot_state())


def _scalar(combo, warm, measure):
    """The reference: one ``access`` call per request, no kernel."""
    design = _build(combo)
    for request in warm:
        design.access(request)
    design.reset_stats()
    warm_state = design.snapshot_state()
    for request in measure:
        design.access(request)
    return warm_state, _outcome(design)


@settings(max_examples=80, deadline=None)
@given(_case())
def test_kernel_replay_matches_scalar(case):
    combo, warm, measure, warm_batches, batches, other_batches = case
    warm_state, (stats, metrics, final) = _scalar(combo, warm, measure)

    design = _build(combo)
    assert select_kernel(design) is not None
    try:
        set_batch_enabled(True)
        for batch in warm_batches:
            assert design.warm_up_array(batch) == "batch"
        assert design.snapshot_state().differing_buffers(warm_state) == []
        snapshot = design.snapshot_state()

        for batch in batches:
            design.run(batch)
        got_stats, got_metrics, got_final = _outcome(design)
        assert got_stats == stats
        assert got_metrics == metrics
        assert got_final.differing_buffers(final) == []

        # Rewind and replay over different batch boundaries, after state
        # the restore must erase.
        design.run(warm)
        design.restore_state(snapshot)
        for batch in other_batches:
            design.run(batch)
        again_stats, again_metrics, again_final = _outcome(design)
    finally:
        set_batch_enabled(None)
    assert again_stats == stats
    assert again_metrics == metrics
    assert again_final.differing_buffers(final) == []
