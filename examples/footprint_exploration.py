#!/usr/bin/env python3
"""Footprint prediction deep dive: accuracy, overfetch and page-size trade-offs.

Exercises the public predictor API directly (the same components the Unison
Cache model uses internally) to answer three questions the paper discusses in
Sections III-A and V-A:

1. How well does the (PC, offset)-indexed footprint predictor learn each
   workload's access patterns?
2. How much off-chip bandwidth do mispredictions waste (overfetch), and how
   much do they cost in extra misses (underprediction)?
3. How does the page size (960 B vs 1984 B Unison pages) shift that balance?

Usage::

    python examples/footprint_exploration.py [--workloads "Web Search" "Data Analytics"]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ExperimentConfig, ExperimentRunner, workload_by_name
from repro.sim.factory import make_design


def explore(workload_name: str, accesses: int, scale: int) -> None:
    profile = workload_by_name(workload_name)
    runner = ExperimentRunner(ExperimentConfig(scale=scale, num_accesses=accesses))
    trace = runner.build_trace(profile)
    warmup = trace[: int(len(trace) * 2 / 3)]
    measure = trace[int(len(trace) * 2 / 3):]

    print(f"\n=== {profile.name} ===")
    print(f"{'design':<14} {'miss%':>7} {'fp acc%':>8} {'overfetch%':>11} "
          f"{'underpred':>10} {'singletons':>11}")
    for design_name in ("unison", "unison-1984", "footprint"):
        design = make_design(design_name, "1GB", scale=scale)
        design.warm_up_array(warmup)
        design.run(measure)
        predictor = design.footprint_predictor
        print(f"{design_name:<14} {100 * design.cache_stats.miss_ratio:>6.1f}% "
              f"{100 * predictor.accuracy_ratio:>7.1f}% "
              f"{100 * predictor.overfetch_ratio:>10.1f}% "
              f"{design.cache_stats.underprediction_misses:>10d} "
              f"{design.cache_stats.singleton_bypasses:>11d}")

    # Show a few learned footprints for the 960B design.
    design = make_design("unison", "1GB", scale=scale)
    design.run(trace)
    table = design.footprint_predictor
    print(f"\nLearned footprint entries (of {table.updates} updates, "
          f"{table.trained_hits} trained lookups):")
    shown = 0
    for key, footprint in zip(table._keys, table._footprints):
        if not key:
            continue  # an empty history entry
        pc, offset = key
        blocks = [i for i in range(table.blocks_per_page) if footprint >> i & 1]
        print(f"  PC {pc:#x} offset {offset:2d} -> "
              f"{len(blocks):2d} blocks {blocks}")
        shown += 1
        if shown >= 5:
            return
    return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+",
                        default=["Web Search", "Data Analytics", "Software Testing"])
    parser.add_argument("--accesses", type=int, default=45_000)
    parser.add_argument("--scale", type=int, default=512)
    args = parser.parse_args()

    for workload in args.workloads:
        explore(workload, args.accesses, args.scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
