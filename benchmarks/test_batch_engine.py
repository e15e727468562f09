"""Scalar-versus-batch engine: bit-identity and throughput.

The batch kernels serve functional warming and measured replay alike, so
both must come out bit-identical to the scalar engine: the post-warming
state, and the statistics and state after a measured replay.  This
benchmark checks both for Unison and Alloy over one in-memory Web Search
trace (256MB designs at scale 512) and times the two engines on the same
calls (best-of-``REPRO_BENCH_WARM_REPS`` interleaved repetitions, so
machine noise hits both sides equally).

By default the trace holds 40,000 warm accesses plus 10,000 replayed
ones.  That keeps the check in tier-1 and still exercises every kernel
path: the 512KB simulated caches hold 512 Unison page frames and 7,168
Alloy blocks against a 6MB working set, so both designs fill every set
and go on evicting (over a thousand Unison pages, tens of thousands of
Alloy blocks) and writing dirty data back during warming, and the
replay hits, misses, evicts and writes back again.  The test asserts the
replay's evictions and write-backs for both designs.

The tracked table ``benchmarks/results/batch_warming.txt`` records what
must hold on every run -- the bit-identity verdicts per design, under a
header naming the trace length; the throughput table and its JSON form
go to the untracked ``benchmarks/results/timings/`` (``batch_warming.txt``,
``batch_warming.json``).

Fidelity knobs:

* ``REPRO_BENCH_WARM_ACCESSES`` -- warm-stream length; set it (e.g. to
  1000000) for a throughput measurement on a long trace.  The replay
  slice is a quarter of it.
* ``REPRO_BENCH_WARM_REPS``     -- repetitions per engine (default 2).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import format_table, write_report, write_timings
from repro.engine import records_to_array, set_batch_enabled, warm_design
from repro.sim.factory import make_design
from repro.workloads import workload_by_name
from repro.workloads.generator import SyntheticWorkload

WARM_ACCESSES = int(os.environ.get("REPRO_BENCH_WARM_ACCESSES", "40000"))
REPLAY_ACCESSES = WARM_ACCESSES // 4
WARM_REPS = int(os.environ.get("REPRO_BENCH_WARM_REPS", "2"))

#: Validated measurement recipe: Web Search at scale 512, 256MB designs.
CAPACITY = "256MB"
SCALE = 512
DESIGNS = ("unison", "alloy")


def _timed(call):
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def test_batch_warming_throughput(results_dir):
    profile = workload_by_name("Web Search")
    profile = profile.scaled(
        max(profile.region_size * 64, profile.working_set_bytes // SCALE)
    )
    trace = SyntheticWorkload(profile, num_cores=4, seed=7).generate(
        WARM_ACCESSES + REPLAY_ACCESSES)
    warm, measure = trace[:WARM_ACCESSES], trace[WARM_ACCESSES:]
    array = records_to_array(warm)

    rows = []
    identical = []
    payload = {"accesses": WARM_ACCESSES, "replay_accesses": REPLAY_ACCESSES,
               "reps": WARM_REPS, "capacity": CAPACITY, "scale": SCALE,
               "designs": {}}
    try:
        set_batch_enabled(True)
        for name in DESIGNS:
            best = {"scalar_warm": float("inf"), "batch_warm": float("inf"),
                    "scalar_replay": float("inf"),
                    "batch_replay": float("inf")}
            for _ in range(WARM_REPS):
                scalar = make_design(name, CAPACITY, scale=SCALE)
                batch = make_design(name, CAPACITY, scale=SCALE)
                times = {"scalar_warm": _timed(lambda: scalar.warm_up(warm))}
                started = time.perf_counter()
                engine = warm_design(batch, array)
                times["batch_warm"] = time.perf_counter() - started
                assert engine == "batch"
                diverged = batch.snapshot_state().differing_buffers(
                    scalar.snapshot_state())
                assert not diverged, (
                    f"batch warming diverged from scalar for {name}: "
                    f"{diverged}"
                )

                def scalar_replay():
                    for request in measure:
                        scalar.access(request)

                times["scalar_replay"] = _timed(scalar_replay)
                times["batch_replay"] = _timed(lambda: batch.run(measure))
                for key, seconds in times.items():
                    best[key] = min(best[key], seconds)

            replay_diverged = batch.snapshot_state().differing_buffers(
                scalar.snapshot_state())
            assert not replay_diverged, (
                f"batch replay diverged from scalar for {name}: "
                f"{replay_diverged}"
            )
            assert batch.stats().as_dict() == scalar.stats().as_dict()
            assert batch.extra_metrics() == scalar.extra_metrics()
            stats = scalar.cache_stats
            assert stats.pages_evicted > 0 and stats.offchip_writeback_blocks

            rates = {key: (WARM_ACCESSES if key.endswith("warm")
                           else REPLAY_ACCESSES) / seconds
                     for key, seconds in best.items()}
            warm_speedup = best["scalar_warm"] / best["batch_warm"]
            replay_speedup = best["scalar_replay"] / best["batch_replay"]
            rows.append([name, f"{rates['scalar_warm']:,.0f}",
                         f"{rates['batch_warm']:,.0f}",
                         f"{warm_speedup:.2f}x",
                         f"{rates['scalar_replay']:,.0f}",
                         f"{rates['batch_replay']:,.0f}",
                         f"{replay_speedup:.2f}x"])
            identical.append([name, "yes", "yes"])
            payload["designs"][name] = {
                "scalar_accesses_per_sec": round(rates["scalar_warm"], 1),
                "batch_accesses_per_sec": round(rates["batch_warm"], 1),
                "speedup": round(warm_speedup, 3),
                "scalar_replay_accesses_per_sec": round(
                    rates["scalar_replay"], 1),
                "batch_replay_accesses_per_sec": round(
                    rates["batch_replay"], 1),
                "replay_speedup": round(replay_speedup, 3),
                "bit_identical": True,
            }
    finally:
        set_batch_enabled(None)

    workload = (f"{WARM_ACCESSES:,} warm + {REPLAY_ACCESSES:,} replayed "
                f"accesses (Web Search, {CAPACITY} @ scale {SCALE})")
    write_report(results_dir, "batch_warming", [
        f"Batch vs scalar engine, {workload}",
        "", *format_table(["design", "post-warming state bit-identical",
                           "measured replay bit-identical"], identical),
    ])
    write_timings(results_dir, "batch_warming.txt", [
        f"Warming and replay throughput, {workload}, best of {WARM_REPS} "
        f"interleaved reps (replay from record lists)", "",
        *format_table(["design", "scalar warm acc/s", "batch warm acc/s",
                       "warm speedup", "scalar replay acc/s",
                       "batch replay acc/s", "replay speedup"], rows),
    ])
    write_timings(results_dir, "batch_warming.json",
                  [json.dumps(payload, indent=2, sort_keys=True)])
