"""Figure 5 -- Unison Cache miss ratio as a function of associativity.

The paper plots the miss ratio of direct-mapped, 4-way and 32-way Unison
organizations for a small (128 MB) and a large (1 GB; 8 GB for TPC-H) cache.
The headline observations to reproduce:

* four ways give a sizeable reduction over direct-mapped (sometimes >2x), and
* going beyond four ways adds little.
"""

from __future__ import annotations

import pytest

from conftest import bench_config, format_table, write_report

from repro.sim.executor import run_sweep
from repro.sim.spec import SweepSpec
from repro.workloads.cloudsuite import CLOUDSUITE_WORKLOADS, tpch_queries

ASSOCIATIVITIES = (1, 4, 32)


def _measure():
    # One Unison grid per capacity range; each associativity override is
    # labelled with its canonical variant name (unison-dm, unison,
    # unison-32way), and the executor's shared cache generates each
    # workload trace and no-cache baseline once.
    ways_axis = tuple({"associativity": ways} for ways in ASSOCIATIVITIES)
    sweeps = (
        SweepSpec(designs=("unison",), workloads=CLOUDSUITE_WORKLOADS,
                  capacities=("128MB", "1GB"), config=bench_config(),
                  overrides=ways_axis),
        SweepSpec(designs=("unison",), workloads=(tpch_queries(),),
                  capacities=("1GB", "8GB"), config=bench_config(),
                  overrides=ways_axis),
    )
    results = {}
    for spec in sweeps:
        for trial, result in zip(spec.trials(), run_sweep(spec)):
            cell = results.setdefault((result.workload, result.capacity), {})
            cell[trial.associativity] = result.miss_ratio
    return results


@pytest.mark.benchmark(group="fig5")
def test_fig5_associativity(benchmark, results_dir):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = []
    for (workload, capacity), ratios in results.items():
        rows.append([
            workload, capacity,
            f"{100 * ratios[1]:.1f}", f"{100 * ratios[4]:.1f}",
            f"{100 * ratios[32]:.1f}",
        ])
    write_report(results_dir, "fig5_associativity", format_table(
        ["Workload", "Capacity", "1-way miss%", "4-way miss%", "32-way miss%"],
        rows,
    ))

    improvements = []
    diminishing = []
    for ratios in results.values():
        if ratios[1] > 0.01:
            improvements.append((ratios[1] - ratios[4]) / ratios[1])
        diminishing.append(ratios[4] - ratios[32])

    # 4-way associativity provides a sizeable average reduction over
    # direct-mapped (the paper often sees the miss ratio halved).
    assert sum(improvements) / len(improvements) > 0.10

    # Beyond 4 ways there is no significant further reduction (the average
    # additional gain is small compared to the 1-way -> 4-way step).
    avg_gain_4_to_32 = sum(diminishing) / len(diminishing)
    assert avg_gain_4_to_32 < 0.05

    # 4-way should never be much worse than direct-mapped anywhere.
    for ratios in results.values():
        assert ratios[4] <= ratios[1] + 0.02
