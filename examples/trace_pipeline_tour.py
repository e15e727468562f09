#!/usr/bin/env python3
"""Tour of the trace subsystem.

Walks through the full trace lifecycle:

1. stream a synthetic workload trace straight to a compact binary file;
2. inspect its self-describing header;
3. open it as one packed record array and transform it by indexing (a
   window slice, a core mask, an address remap, a seeded sample), then
   write the result back out;
4. ingest an external CSV trace and replay it through a DRAM-cache sweep as
   a first-class workload next to a synthetic one.

Usage::

    python examples/trace_pipeline_tour.py [--accesses 200000]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import ExperimentConfig, SweepSpec, run_sweep
from repro.sim.experiment import ExperimentRunner
from repro.trace.binfmt import (BinaryTraceWriter, open_trace_array,
                                read_header, write_trace_bin)
from repro.workloads.cloudsuite import workload_by_name


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=200_000)
    parser.add_argument("--scale", type=int, default=2048)
    args = parser.parse_args()

    # Every file of the tour lives in a temporary directory removed on exit.
    with tempfile.TemporaryDirectory(prefix="repro-trace-tour-") as workdir:
        tour(Path(workdir), args)
    return 0


def tour(workdir: Path, args: argparse.Namespace) -> None:
    config = ExperimentConfig(scale=args.scale, num_accesses=args.accesses,
                              num_cores=4, seed=1)
    runner = ExperimentRunner(config)
    profile = workload_by_name("Web Search")

    # 1. Stream the synthetic trace to disk, chunk by chunk: the full trace
    #    never exists in memory here.
    trace_path = workdir / "websearch.rptr"
    with BinaryTraceWriter(trace_path, num_cores=config.num_cores) as writer:
        for chunk in runner.iter_trace_chunks(profile):
            writer.write_all(chunk)
    count = writer.count
    print(f"generated {count} accesses -> {trace_path}")

    # 2. The header describes the file without decompressing the payload.
    info = read_header(trace_path)
    print(f"header: v{info.version} codec={info.codec} "
          f"cores={info.num_cores} accesses={info.access_count} "
          f"({info.file_bytes} bytes on disk)")

    # 3. The file as one packed record array, transformed by indexing:
    #    steady-state window, two cores, addresses folded into 256 MB, a
    #    seeded 25% sample.  write_trace_bin writes the array byte for byte.
    trace = open_trace_array(trace_path)
    window = trace[count // 4:3 * count // 4]
    kept = window[np.isin(window["core_id"], (0, 1))].copy()
    kept["address"] %= 256 << 20
    sampled = kept[np.random.default_rng(7).random(len(kept)) < 0.25]
    sampled_path = workdir / "sampled.rptr"
    written = write_trace_bin(sampled_path, sampled,
                              num_cores=config.num_cores)
    print(f"pipeline kept {written} accesses -> {sampled_path}")

    # 4. Ingest an external CSV trace (the kind a real system would dump)
    #    and sweep it next to a synthetic workload: trace files are
    #    first-class workloads in a SweepSpec.
    csv_path = workdir / "external.csv"
    with csv_path.open("w") as handle:
        handle.write("pc,address,type\n")
        for record in sampled[:20_000]:
            code = "W" if record["access_type"] else "R"
            handle.write(f"{int(record['pc']):#x},"
                         f"{int(record['address']):#x},{code}\n")
    print(f"exported an external-style CSV trace -> {csv_path}")

    spec = SweepSpec(
        designs=("unison", "alloy"),
        workloads=("Web Search", f"trace:{csv_path}"),
        capacities=("256MB",),
        config=config,
    )
    results = run_sweep(spec)
    print()
    print(results.table())


if __name__ == "__main__":
    raise SystemExit(main())
