"""Shared infrastructure for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation.  The heavy lifting is one trial or sweep through
:mod:`repro.sim.executor`; the ``benchmark`` fixture
wraps that call (``rounds=1`` -- these are experiments, not micro-benchmarks),
and the resulting rows are appended to ``benchmarks/results/`` so that
EXPERIMENTS.md can reference the measured numbers.

Fidelity knobs (environment variables):

* ``REPRO_BENCH_ACCESSES`` -- accesses per experiment (default 40000).
* ``REPRO_BENCH_SCALE``    -- capacity scale-down factor (default 512).

Raising the access count and lowering the scale factor improves fidelity at
the cost of run time; the defaults regenerate every table and figure in
roughly ten minutes on a laptop.

Trace generation goes through the executor's caches, whose bottom layer is
the persistent on-disk :class:`repro.trace.store.TraceStore`
(``~/.cache/repro/traces``; relocate or disable via ``REPRO_TRACE_STORE``).
A second benchmark session with the same fidelity knobs therefore replays
every workload trace from disk instead of regenerating it -- and CI caches
the store directory between runs, keyed on the generator version.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import List, Sequence

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.sim.executor import run_trial  # noqa: E402
from repro.sim.experiment import ExperimentConfig, ExperimentResult, ExperimentRunner  # noqa: E402
from repro.sim.spec import ExperimentSpec  # noqa: E402
from repro.workloads.profile import WorkloadProfile  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

BENCH_ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "40000"))
BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "512"))


def bench_config(seed: int = 1) -> ExperimentConfig:
    """The experiment configuration used by every benchmark."""
    return ExperimentConfig(
        scale=BENCH_SCALE,
        num_accesses=BENCH_ACCESSES,
        num_cores=16,
        seed=seed,
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory collecting the regenerated tables/figures."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """One experiment runner shared by all benchmarks in a session."""
    return ExperimentRunner(bench_config())


class TraceCache:
    """Runs designs over shared per-workload traces.

    Backed by the sweep executor's process-wide trace cache (and, beneath
    it, the persistent on-disk trace store), so benchmarks using this
    helper and benchmarks declared as ``SweepSpec`` grids (fig6, fig8)
    generate each workload trace at most once per session -- and not at
    all when a previous session already stored it.
    """

    def __init__(self, experiment_runner: ExperimentRunner) -> None:
        self.runner = experiment_runner

    def run(self, design: str, profile: WorkloadProfile, capacity,
            associativity=None) -> ExperimentResult:
        return run_trial(ExperimentSpec(design, profile, capacity,
                                        config=self.runner.config,
                                        associativity=associativity))


@pytest.fixture(scope="session")
def trace_cache(runner) -> TraceCache:
    return TraceCache(runner)


def write_report(results_dir: Path, name: str, lines: Sequence[str]) -> None:
    """Persist one regenerated table/figure and echo it to the console.

    Reports are tracked in git and must come out byte-identical on every
    run: wall-clock measurements go through :func:`write_timings`.
    """
    path = results_dir / f"{name}.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    print(f"\n=== {name} ===")
    print(text)


def write_timings(results_dir: Path, filename: str,
                  lines: Sequence[str]) -> None:
    """Persist a run's wall-clock measurements, untracked.

    They land in ``results/timings/`` (ignored by git), so regenerating the
    tables never leaves timing noise in the working tree.
    """
    timings = results_dir / "timings"
    timings.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (timings / filename).write_text(text, encoding="utf-8")
    print(f"\n=== timings/{filename} ===")
    print(text)


def format_table(header: Sequence[str], rows: List[Sequence[str]]) -> List[str]:
    """Simple fixed-width table formatter for the report files."""
    columns = [header] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return lines
