"""Checkpointed sampled simulation: the PR's acceptance benchmark.

Two claims, both on a 1M-access trace:

* **Accuracy at a fraction of the cost.**  A sampled Unison run --
  one warm checkpoint, 20 short windows with functional-warming prologues,
  95% confidence aggregation -- reproduces the full-replay miss ratio
  within two percentage points (the resolution Figures 5/6 are read at,
  with the full value inside the sampled 95% CI) and the speedup-vs-no-cache
  within 2% relative (the paper's "average error of less than 2% at a 95%
  confidence level" claim is about performance), while simulating at most
  20% of the accesses.
* **O(window) trace access.**  Opening a measurement window near the end of
  an uncompressed binary trace through its memory-mapped ``FileWindows``
  provider costs the same as opening one near the beginning -- window-open
  time must not scale with window offset (this is what makes sampling
  billion-access traces feasible: cost tracks windows, not trace length).
"""

from __future__ import annotations

import time

from conftest import write_report, write_timings

from repro.sampling import SamplingConfig, WindowedSampler
from repro.sampling.seekable import FileWindows
from repro.sim.executor import cached_trace, run_trial
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.sim.spec import ExperimentSpec
from repro.trace.binfmt import write_trace_bin
from repro.workloads.cloudsuite import workload_by_name

#: Access count the acceptance criterion is stated over.
TRACE_ACCESSES = 1_000_000
#: Simulated-access budget of the sampled run.
SAMPLED_FRACTION_CEILING = 0.20
#: Speedup agreement and CI target (the paper's 2%-at-95% claim).
SPEEDUP_RELATIVE_TOLERANCE = 0.02
#: Miss-ratio agreement in absolute percentage points.
MISS_RATIO_POINTS_TOLERANCE = 0.02

#: Sampling schedule: 40k-access warm checkpoint, 20 windows of 7k accesses
#: each preceded by 1k of functional warming = at most 200k simulated.
SAMPLING = SamplingConfig(
    checkpoint_accesses=40_000,
    warmup_accesses=1_000,
    window_accesses=7_000,
    min_windows=20,
    max_windows=20,
)

CONFIG = ExperimentConfig(scale=512, num_accesses=TRACE_ACCESSES,
                          num_cores=4, seed=1)


def test_sampled_unison_matches_full_replay(results_dir):
    profile = workload_by_name("Web Search")
    trace = cached_trace(ExperimentRunner(CONFIG), profile)

    start = time.perf_counter()
    full = run_trial(ExperimentSpec("unison", profile, "1GB", config=CONFIG))
    full_seconds = time.perf_counter() - start

    start = time.perf_counter()
    run = WindowedSampler(SAMPLING, config=CONFIG).compare(
        ["unison"], profile, "1GB", trace=trace)
    sampled_seconds = time.perf_counter() - start
    sampled = run.results()[0]
    miss_ci = run.designs["unison"].interval("miss_ratio")
    speedup_ci = run.designs["unison"].interval("speedup_vs_no_cache")

    miss_diff_points = abs(sampled.miss_ratio - full.miss_ratio)
    speedup_diff_rel = (abs(sampled.speedup_vs_no_cache
                            - full.speedup_vs_no_cache)
                        / full.speedup_vs_no_cache)

    write_report(results_dir, "sampled_measurement", [
        f"trace: Web Search, {TRACE_ACCESSES} accesses, 4 cores, scale 512",
        f"sampling: {run.windows_measured} windows x "
        f"{SAMPLING.window_accesses} accesses, "
        f"{SAMPLING.warmup_accesses} warm-up each, "
        f"{SAMPLING.checkpoint_accesses} checkpoint prologue",
        "",
        f"full replay : miss {100 * full.miss_ratio:5.2f}%          "
        f"speedup {full.speedup_vs_no_cache:.4f}",
        f"sampled     : miss {100 * sampled.miss_ratio:5.2f}% "
        f"+- {100 * miss_ci.half_width:4.2f}  speedup "
        f"{sampled.speedup_vs_no_cache:.4f} +- {speedup_ci.half_width:.4f}",
        "",
        f"simulated accesses : {run.simulated_accesses} of "
        f"{TRACE_ACCESSES} ({100 * run.sampled_fraction:.1f}%, "
        f"ceiling {100 * SAMPLED_FRACTION_CEILING:.0f}%)",
        f"miss-ratio error   : {100 * miss_diff_points:.2f} points "
        f"(tolerance {100 * MISS_RATIO_POINTS_TOLERANCE:.0f}; full value "
        f"inside sampled 95% CI: {miss_ci.contains(full.miss_ratio)})",
        f"speedup error      : {100 * speedup_diff_rel:.2f}% relative "
        f"(tolerance {100 * SPEEDUP_RELATIVE_TOLERANCE:.0f}%; 95% CI "
        f"half-width {100 * speedup_ci.relative_error:.2f}%)",
    ])
    write_timings(results_dir, "sampled_measurement.txt", [
        f"full replay : {full_seconds:5.1f} s",
        f"sampled     : {sampled_seconds:5.1f} s",
    ])

    assert run.sampled_fraction <= SAMPLED_FRACTION_CEILING, (
        f"sampled run simulated {100 * run.sampled_fraction:.1f}% of the "
        f"trace (budget {100 * SAMPLED_FRACTION_CEILING:.0f}%)"
    )
    # Performance: the paper's 2%-at-95%-confidence claim.
    assert speedup_diff_rel <= SPEEDUP_RELATIVE_TOLERANCE, (
        f"sampled speedup off by {100 * speedup_diff_rel:.2f}% "
        f"(> {100 * SPEEDUP_RELATIVE_TOLERANCE:.0f}%)"
    )
    assert speedup_ci.relative_error <= SPEEDUP_RELATIVE_TOLERANCE, (
        f"speedup 95% CI half-width {100 * speedup_ci.relative_error:.2f}% "
        f"has not converged to {100 * SPEEDUP_RELATIVE_TOLERANCE:.0f}%"
    )
    # Miss ratio: within the resolution the paper's figures are read at,
    # and statistically consistent with the full replay.
    assert miss_diff_points <= MISS_RATIO_POINTS_TOLERANCE, (
        f"sampled miss ratio off by {100 * miss_diff_points:.2f} points "
        f"(> {100 * MISS_RATIO_POINTS_TOLERANCE:.0f})"
    )
    assert miss_ci.contains(full.miss_ratio), (
        f"full-replay miss ratio {full.miss_ratio:.5f} outside the sampled "
        f"95% CI [{miss_ci.lower:.5f}, {miss_ci.upper:.5f}]"
    )
    assert miss_ci.half_width <= MISS_RATIO_POINTS_TOLERANCE, (
        f"miss-ratio 95% CI half-width {100 * miss_ci.half_width:.2f} points "
        f"exceeds {100 * MISS_RATIO_POINTS_TOLERANCE:.0f}"
    )


def test_mmap_window_open_does_not_scale_with_offset(results_dir, tmp_path):
    profile = workload_by_name("Web Search")
    runner = ExperimentRunner(CONFIG)
    trace = cached_trace(runner, profile)
    path = tmp_path / "windows.rptr"
    write_trace_bin(path, trace, num_cores=4, codec="none")

    window = 4_096
    offsets = {
        "1%": TRACE_ACCESSES // 100,
        "50%": TRACE_ACCESSES // 2,
        "99%": TRACE_ACCESSES * 99 // 100 - window,
    }

    def best_of(fn, repeats=7):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    timings = {}
    provider = FileWindows(path)
    # Correctness first: a window deep in the trace reads exactly.
    probe = offsets["99%"]
    assert (provider.read_array(probe, probe + 64).tobytes()
            == trace[probe:probe + 64].tobytes())
    for label, offset in offsets.items():
        # tobytes() reads every byte of the window inside the timed call.
        timings[label] = best_of(
            lambda offset=offset: provider.read_array(
                offset, offset + window).tobytes())
    provider.close()

    header = (f"uncompressed trace: {TRACE_ACCESSES} accesses "
              f"({path.stat().st_size} bytes); window = {window} records")
    write_report(results_dir, "sampled_window_open", [
        header,
        "",
        "bound: opening the window at 99% of the trace takes at most 3x "
        "as long as at 1% (or 50 ms): window-open time must not scale "
        "with offset",
    ])
    write_timings(results_dir, "sampled_window_open.txt", [
        f"{header}, best of 7",
        "",
        *(f"open at {label:>3}: {1000 * seconds:7.3f} ms"
          for label, seconds in timings.items()),
        "",
        f"late/early ratio: {timings['99%'] / timings['1%']:.2f}x",
    ])

    # O(window), not O(offset): generous slack for timer noise at the
    # sub-millisecond scale, but far below any linear-in-offset behaviour
    # (a streaming skip of 99% of this trace costs tens of milliseconds).
    assert timings["99%"] <= max(3.0 * timings["1%"], 0.050), (
        f"window open scaled with offset: {timings}"
    )
