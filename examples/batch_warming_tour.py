#!/usr/bin/env python3
"""Tour of the vectorized batch functional-warming engine.

The batch engine replays a request stream through fused
per-tag-organization kernels instead of the scalar per-access object walk,
for measurement and for functional warming alike.  Warming keeps only the
*state* a warm stream leaves behind -- tags, dirty bits, predictor tables.
This tour shows the warming contract from both ends:

1. pack a warm stream once into a structured record array -- the form
   the trace store hands every sweep (there ``np.frombuffer`` over the
   stored payload, no per-record objects);
2. warm one design per engine and time both (the batch engine is
   several times faster);
3. prove bit-identity: the post-warming ``StateSnapshot`` of both designs
   holds the same buffers, element for element, so every downstream
   measurement is byte-for-byte unaffected by which engine warmed the
   cache;
4. show the controls: ``REPRO_BATCH=0`` / ``set_batch_enabled(False)``
   (and the CLI's ``--no-batch-warming``) force the scalar path, and
   compositions without a fused kernel fall back automatically.

Usage::

    python examples/batch_warming_tour.py [--accesses 200000]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import records_to_array, set_batch_enabled, warm_design
from repro.sim.factory import make_design
from repro.workloads.cloudsuite import workload_by_name
from repro.workloads.generator import SyntheticWorkload


def same_state(a, b) -> bool:
    return not a.snapshot_state().differing_buffers(b.snapshot_state())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=200_000)
    parser.add_argument("--design", default="unison")
    parser.add_argument("--capacity", default="256MB")
    parser.add_argument("--scale", type=int, default=512)
    args = parser.parse_args()

    # 1. One warm stream, packed once into a structured array.
    profile = workload_by_name("Web Search")
    profile = profile.scaled(
        max(profile.region_size * 64,
            profile.working_set_bytes // args.scale)
    )
    print(f"Generating {args.accesses:,} warm accesses (Web Search)...")
    trace = SyntheticWorkload(profile, num_cores=4,
                              seed=7).generate(args.accesses)
    array = records_to_array(trace)
    print(f"Structured array: {array.nbytes:,} bytes, dtype {array.dtype}\n")

    # 2. Warm one design per engine, timed.
    scalar = make_design(args.design, args.capacity, scale=args.scale)
    started = time.perf_counter()
    scalar.warm_up(trace)
    t_scalar = time.perf_counter() - started

    batch = make_design(args.design, args.capacity, scale=args.scale)
    started = time.perf_counter()
    engine = warm_design(batch, array)
    t_batch = time.perf_counter() - started

    print(f"{args.design} @ {args.capacity} (scale {args.scale}):")
    print(f"  scalar warm-up: {t_scalar:6.2f}s "
          f"({args.accesses / t_scalar:>10,.0f} acc/s)")
    print(f"  batch  warm-up: {t_batch:6.2f}s "
          f"({args.accesses / t_batch:>10,.0f} acc/s)  engine={engine}")
    print(f"  speedup: {t_scalar / t_batch:.1f}x\n")

    # 3. Bit-identity: same post-warming state, byte for byte.
    identical = same_state(scalar, batch)
    print(f"Post-warming StateSnapshot bit-identical: {identical}")
    if not identical:
        return 1

    # 4. The controls: force the scalar engine and get the same state again.
    set_batch_enabled(False)
    try:
        forced = make_design(args.design, args.capacity, scale=args.scale)
        engine = warm_design(forced, trace)
        print(f"With batch disabled, warm_design ran engine={engine}; "
              f"state still identical: "
              f"{same_state(forced, batch)}")
    finally:
        set_batch_enabled(None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
