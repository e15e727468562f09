#!/usr/bin/env python3
"""Tour of the streaming trace subsystem.

Walks through the full trace lifecycle without ever materializing more than
one chunk at a time where it matters:

1. stream a synthetic workload trace straight to a compact binary file;
2. inspect its self-describing header;
3. build a lazy :class:`repro.TraceSource` pipeline over it (window, core
   select, address remap, deterministic downsample) and persist the result;
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

from repro import ExperimentConfig, FileSource, SweepSpec, run_sweep
from repro.sim.experiment import ExperimentRunner
from repro.trace.binfmt import BinaryTraceWriter, read_header
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

    # 3. A lazy pipeline: steady-state window, two cores, addresses folded
    #    into 256 MB, a deterministic 25% sample.  Nothing runs until the
    #    terminal .write() streams it out.
    sampled_path = workdir / "sampled.rptr"
    pipeline = (FileSource(trace_path)
                .window(count // 4, 3 * count // 4)
                .cores(0, 1)
                .remap_addresses(lambda a: a % (256 << 20))
                .downsample(0.25, seed=7))
    written = pipeline.write(sampled_path)
    print(f"pipeline kept {written} accesses -> {sampled_path}")

    # 4. Ingest an external CSV trace (the kind a real system would dump)
    #    and sweep it next to a synthetic workload: trace files are
    #    first-class workloads in a SweepSpec.
    csv_path = workdir / "external.csv"
    with csv_path.open("w") as handle:
        handle.write("pc,address,type\n")
        for access in FileSource(sampled_path).limit(20_000):
            code = "W" if access.is_write else "R"
            handle.write(f"{access.pc:#x},{access.address:#x},{code}\n")
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
