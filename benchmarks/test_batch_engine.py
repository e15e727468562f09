"""Scalar-versus-batch functional-warming throughput.

The batch engine's acceptance bar is a >=10x warming speedup on a
1M-access trace for at least Unison and Alloy, with bit-identical
post-warming state.  This benchmark measures both engines over the same
in-memory trace (best-of-``REPRO_BENCH_WARM_REPS`` interleaved repetitions,
so machine noise hits both sides equally).  The tracked table
``benchmarks/results/batch_warming.txt`` records what must hold on every
run -- the bit-identity verdict per design; the throughput table and its
JSON form go to the untracked ``benchmarks/results/timings/``
(``batch_warming.txt``, ``batch_warming.json``).

Fidelity knobs:

* ``REPRO_BENCH_WARM_ACCESSES`` -- warm-stream length (default 1_000_000).
* ``REPRO_BENCH_WARM_REPS``     -- repetitions per engine (default 2).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import format_table, write_report, write_timings
from repro.engine import (
    numpy_available,
    records_to_array,
    set_batch_enabled,
    warm_design,
)
from repro.sim.factory import make_design
from repro.workloads import workload_by_name
from repro.workloads.generator import SyntheticWorkload

WARM_ACCESSES = int(os.environ.get("REPRO_BENCH_WARM_ACCESSES", "1000000"))
WARM_REPS = int(os.environ.get("REPRO_BENCH_WARM_REPS", "2"))

#: Validated measurement recipe: Web Search at scale 512, 256MB designs.
CAPACITY = "256MB"
SCALE = 512
DESIGNS = ("unison", "alloy")


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_batch_warming_throughput(results_dir):
    profile = workload_by_name("Web Search")
    profile = profile.scaled(
        max(profile.region_size * 64, profile.working_set_bytes // SCALE)
    )
    trace = SyntheticWorkload(profile, num_cores=4,
                              seed=7).generate(WARM_ACCESSES)
    array = records_to_array(trace)

    rows = []
    identical = []
    payload = {"accesses": WARM_ACCESSES, "reps": WARM_REPS,
               "capacity": CAPACITY, "scale": SCALE, "designs": {}}
    try:
        set_batch_enabled(True)
        for name in DESIGNS:
            t_scalar = t_batch = float("inf")
            scalar = batch = None
            for _ in range(WARM_REPS):
                scalar = make_design(name, CAPACITY, scale=SCALE)
                started = time.perf_counter()
                scalar.warm_up(trace)
                t_scalar = min(t_scalar, time.perf_counter() - started)

                batch = make_design(name, CAPACITY, scale=SCALE)
                started = time.perf_counter()
                engine = warm_design(batch, array)
                t_batch = min(t_batch, time.perf_counter() - started)
                assert engine == "batch"

            diverged = batch.snapshot_state().differing_buffers(
                scalar.snapshot_state())
            assert not diverged, (
                f"batch warming diverged from scalar for {name}: {diverged}"
            )
            scalar_aps = WARM_ACCESSES / t_scalar
            batch_aps = WARM_ACCESSES / t_batch
            speedup = t_scalar / t_batch
            rows.append([name, f"{scalar_aps:,.0f}", f"{batch_aps:,.0f}",
                         f"{speedup:.2f}x"])
            identical.append([name, "yes"])
            payload["designs"][name] = {
                "scalar_accesses_per_sec": round(scalar_aps, 1),
                "batch_accesses_per_sec": round(batch_aps, 1),
                "speedup": round(speedup, 3),
                "bit_identical": True,
            }
    finally:
        set_batch_enabled(None)

    workload = (f"{WARM_ACCESSES:,} accesses (Web Search, {CAPACITY} @ "
                f"scale {SCALE})")
    write_report(results_dir, "batch_warming", [
        f"Batch vs scalar functional warming, {workload}",
        "", *format_table(["design", "post-warming state bit-identical"],
                          identical),
    ])
    write_timings(results_dir, "batch_warming.txt", [
        f"Functional-warming throughput, {workload}, best of {WARM_REPS} "
        f"interleaved reps", "",
        *format_table(["design", "scalar acc/s", "batch acc/s", "speedup"],
                      rows),
    ])
    write_timings(results_dir, "batch_warming.json",
                  [json.dumps(payload, indent=2, sort_keys=True)])
