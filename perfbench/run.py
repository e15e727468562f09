"""Host-time benchmark of the Unison Cache reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sampled_paper --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``sampled_paper``, ``full_paper``, ``tune_queue`` (see
``harness.py`` for why each was chosen, and DESIGN.md for what each layer
should move on which workload).

A run sets up five times (generating the workload's traces into a fresh
private trace store) and reports the median as ``setup_s``.  It then
repeats the workload's timed call -- ``SweepExecutor.run`` or
``TuneSearch.run`` -- from empty in-process caches, an empty checkpoint
store and a fresh queue directory while the next repetition is expected to
fit in ``--seconds``, and checks every repetition's simulated statistics
(``outputs.py``).

Every reported time is host time in *reference seconds*: the measured
wall-clock times the host-speed factor of its interval (:class:`HostSpeed`),
so the speed drift of a shared host over minutes does not read as a change
of the program.  The report prints the raw wall-clock and the factors too.

``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones plus the tracing overhead.  Every
metric is host time or host memory; the simulated statistics are outputs
to check, and the model they come from has no real-hardware reference
(it is unvalidated).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Everything the run writes goes under ``.perfbench-work/`` in the checkout
and is removed at exit; ``REPRO_*`` settings are pinned (``harness.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 5

#: The calibration loop's wall-clock on the reference host (the 2-core x86
#: VM the benchmark was tuned on, CPython 3.11.7, with no other load):
#: reported times are in seconds of that host.
REFERENCE_CALIBRATION_S = 0.33

END_TO_END_UNITS = {
    "sweep_s": "s",
    "sim_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cell_success_ratio": "ratio",
    "setup_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sampled_paper", "full_paper", "tune_queue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; at least one repetition "
                             "(two with --trace 1) always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long workloads for the "
                             "self-test (no stored reference)")
    return parser.parse_args(argv)


def import_package() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SOURCE / 'repro'} not found; run from the root "
                 f"of a checkout that holds the package source")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"not from {SOURCE}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def calibration_s() -> float:
    """Wall-clock of a fixed pure-Python loop: the host's speed right now.

    The loop does what the simulator spends its time on -- dict lookups,
    integer arithmetic, method calls -- in a bounded table, so it slows down
    with the host without adding memory.
    """
    start = time.perf_counter()
    table = {}
    for i in range(1_200_000):
        key = i * 2654435761 % 4093
        table[key] = table.get(key, 0) + (i & 7)
    return time.perf_counter() - start


class HostSpeed:
    """Host-speed factors of consecutive intervals, from calibration loops.

    A calibration loop runs before the first interval and after each one;
    an interval's factor is the reference calibration time over the mean of
    the two loops around it.  Measured seconds times the factor are
    reference seconds.
    """

    def __init__(self) -> None:
        self._last = calibration_s()

    def factor(self) -> float:
        """The factor of the interval since the previous call (or init)."""
        now = calibration_s()
        factor = REFERENCE_CALIBRATION_S / ((self._last + now) / 2)
        self._last = now
        return factor


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value once there are four.

    Each repetition's factor carries the noise of two short loops; a mean
    averages it out, and dropping the extremes keeps one disturbed
    repetition from moving the result.
    """
    values = sorted(values)
    if len(values) >= 4:
        values = values[1:-1]
    return statistics.fmean(values)


class Rep:
    """One timed repetition: its times, outcome, and check verdict."""

    def __init__(self, wall_s, outcome, problems, layers=None):
        self.wall_s = wall_s
        self.outcome = outcome
        self.problems = problems
        self.layers = layers
        self.factor = 1.0

    @property
    def sweep_s(self) -> float:
        """Reference seconds of the timed call."""
        return self.wall_s * self.factor

    def scaled_layers(self, units) -> dict:
        """Per-layer metrics with times in reference seconds."""
        scale = {"s": self.factor, "1/s": 1.0 / self.factor}
        return {name: value * scale.get(units[name], 1)
                for name, value in self.layers.items()}


def timed_rep(workload, work_dir: Path, index: int, traced: bool,
              reference) -> Rep:
    from repro.sampling.checkpoints import CheckpointStore
    from repro.sim.executor import clear_caches

    import layers
    import outputs

    checkpoints = CheckpointStore.default()
    shutil.rmtree(checkpoints.root, ignore_errors=True)
    queue_dir = work_dir / f"queue-{index}"
    clear_caches()
    gc.collect()
    tracer = None
    if traced:
        tracer = layers.Tracer(work_dir / f"spans-{index}")
        tracer.install()
    try:
        start = time.perf_counter()
        outcome = workload.run(queue_dir)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    metrics = None
    if tracer is not None:
        metrics = tracer.metrics(wall_s, outcome.failed_jobs,
                                 checkpoints.total_bytes())
    problems = outputs.check(outcome, reference) + outcome.errors
    shutil.rmtree(queue_dir, ignore_errors=True)
    return Rep(wall_s, outcome, problems, metrics)


def measure(workload, work_dir: Path, seconds: float, trace: bool,
            reference) -> list:
    """Repeat the timed call while the next one should fit in ``seconds``."""
    reps = []
    started = time.perf_counter()
    speed = HostSpeed()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = timed_rep(workload, work_dir, len(reps), traced, reference)
        rep.factor = speed.factor()
        reps.append(rep)
        elapsed = time.perf_counter() - started
        needs_traced = trace and len(reps) < 2
        if not needs_traced and elapsed + rep.wall_s > seconds:
            return reps


def set_up(workload, work_dir: Path) -> list:
    """Reference seconds of each set-up round; the last store stays."""
    import harness

    walls = []
    speed = HostSpeed()
    for round_index in range(SETUP_ROUNDS):
        store = harness.clean_dir(work_dir / f"store-{round_index}")
        start = time.perf_counter()
        workload.setup(store)
        walls.append(time.perf_counter() - start)
        if round_index:
            shutil.rmtree(work_dir / f"store-{round_index - 1}")
    # One factor for all rounds: each round is too short to calibrate alone.
    factor = speed.factor()
    return [wall * factor for wall in walls]


def report(name, value, unit):
    print(f"  {name:<32} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    import harness
    import layers
    import outputs

    workload = harness.WORKLOADS[args.workload](args.seed,
                                                tiny=args.size == "tiny")
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    previous = harness.isolate(work_dir)
    try:
        reference, problems = (None, []) if workload.tiny else \
            outputs.load_reference(workload.name, workload.fingerprint(),
                                   args.seed)
        setup_times = set_up(workload, work_dir)
        reps = measure(workload, work_dir, args.seconds, bool(args.trace),
                       reference)
    finally:
        harness.restore_env(previous)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(rep.outcome.attempted_cells for rep in reps)
    failed = sum(rep.outcome.failed_cells for rep in reps)
    for index, rep in enumerate(reps):
        for problem in rep.problems:
            problems.append(f"repetition {index}: {problem}")
    untraced = [rep for rep in reps if rep.layers is None]
    traced = [rep for rep in reps if rep.layers is not None]
    sweep_s = trimmed_mean(rep.sweep_s for rep in untraced)

    print(f"workload {workload.name}, seed {args.seed}, "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
          f"reference {'exact' if reference else 'none: invariants only'}")
    for index, rep in enumerate(reps):
        kind = "traced" if rep.layers is not None else "untraced"
        print(f"  repetition {index} ({kind}): {rep.wall_s:.4f} s wall x "
              f"{rep.factor:.4f} host speed = {rep.sweep_s:.4f} s, "
              f"{rep.outcome.failed_cells}/{rep.outcome.attempted_cells} "
              f"cells failed")
    print("  set-up rounds (reference s): "
          + ", ".join(f"{s:.4f}" for s in setup_times))
    if args.trace:
        units = layers.METRICS
        scaled = [rep.scaled_layers(units) for rep in traced]
        metrics = {name: statistics.median(s[name] for s in scaled)
                   for name in scaled[0]}
        traced_s = trimmed_mean(rep.sweep_s for rep in traced)
        metrics.update({
            "bench.untraced_sweep_s": sweep_s,
            "bench.traced_sweep_s": traced_s,
            "bench.tracing_overhead_s": traced_s - sweep_s,
            "bench.tracing_overhead_ratio": (traced_s - sweep_s) / sweep_s,
        })
        print("per-layer (medians over traced repetitions, reference s):")
    else:
        simulated = sum(
            harness.simulated_accesses(result, reps[0].outcome.planned[key])
            for key, result in reps[0].outcome.cells)
        metrics = {
            "sweep_s": sweep_s,
            "sim_accesses_per_s": simulated / sweep_s,
            "peak_rss_mb": peak_rss_mb(),
            "cell_success_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
        print("end-to-end (reference s; sweep_s is a trimmed mean over "
              "repetitions, setup_s a median over rounds):")
    for name, value in metrics.items():
        report(name, value, units[name])
    print(f"  cell_failure_ratio {failed}/{attempted} = "
          f"{failed / attempted:.6g} (failed cells / cells attempted)")
    for problem in problems:
        print(f"  output check: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
