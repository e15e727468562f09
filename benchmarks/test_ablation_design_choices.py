"""Ablation study of Unison Cache's individual design choices.

The paper motivates each mechanism separately (Section III-A); this benchmark
quantifies what each one contributes by disabling it:

* **Way prediction** -- the paper's claim is that a simple address-hash way
  predictor makes 4-way associativity essentially free.  The ablation compares
  the real predictor against an *oracle* that always knows the correct way:
  their hit latencies should be within a couple of cycles of each other.
* **Set associativity** -- direct-mapped vs 4-way miss ratio (Figure 5's left
  half, repeated here as part of the ablation record).
* **Footprint fetching** -- Unison's page-based allocation with footprint
  prediction vs Alloy's demand-block fetching: hit-ratio gain and the
  off-chip traffic cost of the prefetched blocks.
"""

from __future__ import annotations

import pytest

from conftest import bench_config, format_table, write_report

from repro.sim.experiment import ExperimentRunner
from repro.sim.factory import make_design
from repro.workloads.cloudsuite import web_serving


def _measure():
    runner = ExperimentRunner(bench_config(seed=21))
    profile = web_serving()
    trace = runner.build_trace(profile)
    warmup = trace[: int(len(trace) * 2 / 3)]
    measure = trace[int(len(trace) * 2 / 3):]

    def run(design):
        design.warm_up_array(warmup)
        design.run(measure)
        return design

    scale = runner.config.scale
    with_wp = run(make_design("unison", "1GB", scale=scale))
    oracle_way = make_design("unison", "1GB", scale=scale)
    # Oracle ablation: disabling the predictor makes the model read the
    # correct way directly (perfect way knowledge, no mispredict penalty).
    oracle_way.way_predictor = None
    run(oracle_way)
    direct_mapped = run(make_design("unison-dm", "1GB", scale=scale))
    alloy = run(make_design("alloy", "1GB", scale=scale))

    return {
        "way_predictor": with_wp,
        "oracle_way": oracle_way,
        "direct_mapped": direct_mapped,
        "alloy": alloy,
    }


@pytest.mark.benchmark(group="ablation")
def test_ablation_of_design_choices(benchmark, results_dir):
    designs = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = []
    for name, design in designs.items():
        stats = design.cache_stats
        rows.append([
            name,
            f"{100 * stats.miss_ratio:.1f}",
            f"{stats.average_hit_latency:.1f}",
            f"{stats.offchip_blocks_per_access:.2f}",
        ])
    write_report(results_dir, "ablation_design_choices", format_table(
        ["Configuration", "miss%", "avg hit latency", "offchip blocks/access"],
        rows,
    ))

    with_wp = designs["way_predictor"].cache_stats
    oracle = designs["oracle_way"].cache_stats
    direct = designs["direct_mapped"].cache_stats
    alloy = designs["alloy"].cache_stats

    # Associativity ablation: 4-way reduces the miss ratio vs direct-mapped.
    assert with_wp.miss_ratio <= direct.miss_ratio + 0.01

    # Footprint fetching ablation: Unison's hit ratio is far higher than the
    # demand-fetch-only Alloy Cache on the same trace...
    assert with_wp.hit_ratio > alloy.hit_ratio + 0.15
    # ...at a bounded off-chip traffic cost (the footprints are filtered).
    assert with_wp.offchip_blocks_per_access < 4 * max(
        0.25, alloy.offchip_blocks_per_access
    )

    # Way prediction ablation: the real predictor's hit latency stays within a
    # few cycles of the oracle's and of the direct-mapped organization's (the
    # whole point of Section III-A.6).
    assert with_wp.average_hit_latency <= oracle.average_hit_latency + 5
    assert with_wp.average_hit_latency <= direct.average_hit_latency + 10
