#!/usr/bin/env python3
"""Tour of the composable design API.

Walks the component layer end to end:

1. list the component kinds each policy role ships with;
2. show how the canonical designs decompose (their registered
   :class:`repro.dramcache.DesignSpec` breakdowns and identity tokens);
3. declare and register a brand-new hybrid (Loh-Hill's MissMap organization
   behind Alloy's MAP-I miss predictor) in a few lines;
4. sweep the new hybrid against the shipped hybrids (``alloy+footprint``,
   ``unison-nowp``) and their canonical parents on one workload;
5. show that a spec is the one constructor: every registered name builds
   a plain ``ComposedDramCache``, and ``make_design`` is exactly the spec's
   own ``build`` (bit-identical on a shared trace).

Usage::

    python examples/compose_design_tour.py [--accesses 20000]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ExperimentConfig, SweepSpec, run_sweep
from repro.config.cache_configs import scaled_capacity
from repro.dramcache import ComponentSpec, DesignSpec
from repro.dramcache.components import (
    FETCH_POLICIES,
    HIT_PREDICTORS,
    TAG_ORGANIZATIONS,
    WRITEBACK_POLICIES,
)
from repro.sim.factory import make_design
from repro.sim.registry import DESIGNS, DesignBuildContext
from repro.utils.units import parse_size
from repro.workloads.cloudsuite import workload_by_name
from repro.workloads.generator import SyntheticWorkload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument("--scale", type=int, default=2048)
    args = parser.parse_args()

    # 1. The building blocks. ------------------------------------------- #
    print("=== component kinds ===")
    for registry in (TAG_ORGANIZATIONS, HIT_PREDICTORS, FETCH_POLICIES,
                     WRITEBACK_POLICIES):
        print(f"  {registry.role + ':':<18} {' '.join(sorted(registry.kinds()))}")
    print()

    # 2. How the shipped designs decompose. ----------------------------- #
    print("=== canonical designs as component specs ===")
    for name in ("unison", "alloy", "footprint", "loh_hill"):
        spec = DESIGNS.resolve(name).spec
        print(f"  {name:<12} {spec.describe_components()}")
    print()

    # 3. A brand-new design point: declare it, register it, done. -------- #
    hybrid = DesignSpec(
        name="loh_hill+map-i",
        tags=ComponentSpec("missmap"),
        hit_predictor=ComponentSpec("map-i"),
        description="Loh-Hill organization behind Alloy's miss predictor",
    )
    if "loh_hill+map-i" not in DESIGNS:
        DESIGNS.register_spec(hybrid)
    print("=== new hybrid registered ===")
    print(f"  {hybrid.name}: {hybrid.describe_components()}")
    print(f"  token: {hybrid.token()}")
    print()

    # 4. Hybrids are ordinary sweep citizens. --------------------------- #
    spec = SweepSpec(
        designs=("unison", "unison-nowp", "alloy", "alloy+footprint",
                 "loh_hill", "loh_hill+map-i"),
        workloads=("Web Search",),
        capacities=("1GB",),
        config=ExperimentConfig(scale=args.scale,
                                num_accesses=args.accesses, num_cores=4),
    )
    print(f"=== sweep: {spec.describe()} ===")
    results = run_sweep(spec)
    print(results.table())
    print()

    # 5. One constructor: every name is a spec on the composed engine. -- #
    engines = {type(make_design(name, "1GB", scale=args.scale)).__name__
               for name in DESIGNS}
    print(f"=== {len(DESIGNS)} registered designs build: "
          f"{', '.join(sorted(engines))} ===")
    profile = workload_by_name("Web Search")
    trace = SyntheticWorkload(profile, num_cores=4,
                              seed=1).generate(min(args.accesses, 10_000))
    paper = parse_size("1GB")
    context = DesignBuildContext(
        paper_capacity_bytes=paper,
        scaled_capacity_bytes=scaled_capacity(paper, args.scale),
        scale=args.scale, num_cores=4,
    )
    via_name = make_design("unison", "1GB", scale=args.scale, num_cores=4)
    via_spec = DESIGNS.resolve("unison").spec.build(context)
    for design in (via_name, via_spec):
        design.run(trace)
    print("=== make_design vs spec.build (unison) ===")
    print(f"  make_design  miss {100 * via_name.cache_stats.miss_ratio:.4f}%")
    print(f"  spec.build   miss {100 * via_spec.cache_stats.miss_ratio:.4f}%")
    identical = (via_name.cache_stats.miss_ratio
                 == via_spec.cache_stats.miss_ratio
                 and via_name.extra_metrics() == via_spec.extra_metrics())
    print(f"  bit-identical: {identical}")
    return 0 if identical and engines == {"ComposedDramCache"} else 1


if __name__ == "__main__":
    raise SystemExit(main())
