"""Trace codec benchmark: the binary format's size and load-speed claims.

Acceptance criteria for the streaming trace subsystem: on a 1M-access trace
the binary format must be >= 5x smaller on disk and >= 3x faster to load
than the line-oriented text format.  (Measured with the collector disabled,
as ``timeit`` does: both codecs allocate the same million record objects,
and collector pauses otherwise dominate the run-to-run variance.)
"""

from __future__ import annotations

import gc
import time

from conftest import write_report, write_timings

from repro.engine.trace_array import array_to_records
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.trace.binfmt import read_trace_bin, write_trace_bin
from repro.trace.io import read_trace, write_trace
from repro.workloads.cloudsuite import workload_by_name

#: Access count the PR's acceptance criterion is stated over.
TRACE_ACCESSES = 1_000_000
SIZE_RATIO_FLOOR = 5.0
LOAD_RATIO_FLOOR = 3.0


def _timed(fn, repeats=3):
    """Best-of-N wall time with the cyclic collector paused (timeit-style)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        del result
        result = None
    return best


def test_binary_format_size_and_load_speed(results_dir, tmp_path):
    runner = ExperimentRunner(ExperimentConfig(
        scale=512, num_accesses=TRACE_ACCESSES, num_cores=4, seed=1,
    ))
    trace = array_to_records(
        runner.build_trace(workload_by_name("Web Search")))

    text_path = tmp_path / "trace.trace"
    bin_path = tmp_path / "trace.rptr"
    text_write = _timed(lambda: write_trace(text_path, trace), repeats=1)
    bin_write = _timed(lambda: write_trace_bin(bin_path, trace, num_cores=4),
                       repeats=1)

    text_bytes = text_path.stat().st_size
    bin_bytes = bin_path.stat().st_size
    size_ratio = text_bytes / bin_bytes

    # Correctness before speed: both codecs round-trip losslessly.
    assert read_trace_bin(bin_path) == trace
    assert read_trace(text_path) == trace

    text_load = _timed(lambda: read_trace(text_path))
    bin_load = _timed(lambda: read_trace_bin(bin_path))
    load_ratio = text_load / bin_load

    header = f"trace: Web Search, {TRACE_ACCESSES} accesses, 4 cores, scale 512"
    write_report(results_dir, "trace_formats", [
        header,
        "",
        f"text   size {text_bytes:>10} B",
        f"binary size {bin_bytes:>10} B",
        "",
        f"size ratio (text/binary): {size_ratio:.2f}x "
        f"(required >= {SIZE_RATIO_FLOOR}x)",
        f"load ratio (text/binary): required >= {LOAD_RATIO_FLOOR}x",
    ])
    write_timings(results_dir, "trace_formats.txt", [
        header,
        "",
        f"text   write {text_write:5.2f} s   load {text_load:5.2f} s",
        f"binary write {bin_write:5.2f} s   load {bin_load:5.2f} s",
        "",
        f"load ratio (text/binary): {load_ratio:.2f}x",
    ])

    assert size_ratio >= SIZE_RATIO_FLOOR, (
        f"binary format only {size_ratio:.2f}x smaller than text "
        f"(need >= {SIZE_RATIO_FLOOR}x)"
    )
    assert load_ratio >= LOAD_RATIO_FLOOR, (
        f"binary format only {load_ratio:.2f}x faster to load than text "
        f"(need >= {LOAD_RATIO_FLOOR}x)"
    )
