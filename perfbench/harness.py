"""Workloads and run isolation of the host-time benchmark.

Every workload is built from public entry points of the ``repro`` package
only: a :class:`~repro.sim.spec.SweepSpec` run through the serial
:class:`~repro.sim.executor.SweepExecutor`, or a
:class:`~repro.search.driver.TuneSearch` run through a
:class:`~repro.queue.service.SweepService` with forked workers.  The seed
feeds ``ExperimentConfig.seed`` (and through it the sampling seed) and
``TuneConfig.seed``; nothing else about a workload depends on it, so the
amount of simulated work is the same for every seed.

Why these three workloads (the predictions per layer are in DESIGN.md):

* ``sampled_paper`` -- the paper's SimFlex-style sampled sweep, the
  headline path: checkpoint restore, per-window re-warm, the matched-pair
  baseline and replay all carry weight.  Web Search (dense footprints, few
  writes) runs beside Data Analytics (sparse footprints, many writes).
* ``full_paper`` -- the same grid with full replay: batch warming, object
  replay and DRAM timing, with no restores and no queue, so it bypasses a
  rewind optimisation and isolates the measurement engine.
* ``tune_queue`` -- a seeded autotuner search through the durable queue with
  two forked workers: the only workload with queue jobs, SQLite writes,
  checkpoint loads across processes, window-batch jobs and designs on the
  scalar warming fallback.  Its candidates are the whole of a fixed
  sub-grid of ``default_space()``, so the draw does not depend on the seed.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Environment the benchmark pins for the whole run, whatever the caller's
#: environment holds: telemetry and profiling off, batch warming and
#: on-disk checkpoints at their defaults, and the default store budget.
PINNED_ENV = {
    "REPRO_TELEMETRY": "0",
    "REPRO_PROFILE": "0",
    "REPRO_BATCH": "1",
    "REPRO_CHECKPOINTS": "1",
}
#: Variables removed so their defaults apply.
UNSET_ENV = ("REPRO_TRACE_STORE_BYTES",)

PAPER_DESIGNS = ("unison", "alloy", "footprint")
PAPER_WORKLOADS = ("Web Search", "Data Analytics")
CAPACITY = "1GB"
SCALE = 512
CORES = 16


def isolate(work_dir: Path, batch: bool = True) -> Dict[str, Optional[str]]:
    """Point every store of the package into ``work_dir``; pin the rest.

    Returns the previous values, for :func:`restore_env`.  The trace store
    is re-pointed per set-up round by :meth:`Workload.setup`; the queue
    directory is passed explicitly per repetition.
    """
    values = dict(PINNED_ENV)
    values["REPRO_BATCH"] = "1" if batch else "0"
    values["REPRO_TRACE_STORE"] = str(work_dir / "store")
    values["REPRO_QUEUE_DIR"] = str(work_dir / "queue")
    values["REPRO_TELEMETRY_DIR"] = str(work_dir / "telemetry")
    # Temporary files (tempfile, SQLite) stay inside the work directory too.
    values["TMPDIR"] = str(work_dir / "tmp")
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = None
    previous = {name: os.environ.get(name)
                for name in list(values) + list(UNSET_ENV)}
    os.environ.update(values)
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    return previous


def restore_env(previous: Dict[str, Optional[str]]) -> None:
    for name, value in previous.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    tempfile.tempdir = None


@dataclass
class Outcome:
    """What one timed call produced, in the shape the output check reads."""

    #: ``(cell key, ExperimentResult)`` in grid order.
    cells: List[Tuple[str, object]] = field(default_factory=list)
    #: The planned cells, ``cell key -> ExperimentSpec``.
    planned: Dict[str, object] = field(default_factory=dict)
    failed_cells: int = 0
    failed_jobs: int = 0
    #: Frontier winners (tune only).
    winners: Optional[List[str]] = None
    errors: List[str] = field(default_factory=list)

    @property
    def attempted_cells(self) -> int:
        return len(self.planned)


def cell_key(design: str, workload: str, capacity: str) -> str:
    return f"{design}|{workload}|{capacity}"


def simulated_accesses(result, trial) -> float:
    """Design accesses one cell simulated (its sampled share if sampled)."""
    total = trial.config.num_accesses
    if trial.sampling is None:
        return float(total)
    return result.extra["sampling_fraction"] * total


class Workload:
    """One benchmark workload: set-up, the timed call, and its outputs."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    # -- overridden per workload --------------------------------------- #
    def trials(self):
        raise NotImplementedError

    def run(self, queue_dir: Path) -> Outcome:
        raise NotImplementedError

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError

    def fingerprint(self) -> Dict[str, object]:
        """Every size parameter but the seed; a reference matches only these."""
        return type(self)(seed=0, tiny=self.tiny).sizes()

    # ------------------------------------------------------------------ #
    def setup(self, store_dir: Path) -> None:
        """Generate every trace the workload replays into ``store_dir``."""
        from repro.sim.executor import cached_trace, clear_caches
        from repro.sim.experiment import ExperimentRunner

        os.environ["REPRO_TRACE_STORE"] = str(store_dir)
        clear_caches()
        seen = set()
        for trial in self.trials():
            key = (trial.workload, trial.config)
            if key in seen:
                continue
            seen.add(key)
            cached_trace(ExperimentRunner(trial.config), trial.workload)
        clear_caches()

    def planned(self) -> Dict[str, object]:
        return {cell_key(t.result_label, t.workload.name, t.capacity): t
                for t in self.trials()}


class _PaperGrid(Workload):
    """unison/alloy/footprint x Web Search/Data Analytics x 1GB, serial."""

    #: Trace length at full size (an eighth of it when tiny).
    accesses = 0

    def experiment_config(self):
        from repro.sim.experiment import ExperimentConfig

        return ExperimentConfig(scale=SCALE, num_accesses=self.num_accesses,
                                num_cores=CORES, seed=self.seed)

    @property
    def num_accesses(self) -> int:
        return self.accesses // 8 if self.tiny else self.accesses

    def sampling(self):
        return None

    def spec(self):
        from repro.sim.spec import SweepSpec

        return SweepSpec(designs=PAPER_DESIGNS, workloads=PAPER_WORKLOADS,
                         capacities=(CAPACITY,),
                         config=self.experiment_config(),
                         sampling=self.sampling())

    def trials(self):
        return self.spec().trials()

    def sizes(self) -> Dict[str, object]:
        return {"config": repr(self.experiment_config()),
                "sampling": repr(self.sampling()),
                "designs": list(PAPER_DESIGNS),
                "workloads": list(PAPER_WORKLOADS), "capacity": CAPACITY}

    def run(self, queue_dir: Path) -> Outcome:
        from repro.sim.executor import SweepExecutor

        spec = self.spec()
        outcome = Outcome(planned=self.planned())
        try:
            results = SweepExecutor(workers=1).run(spec)
        except Exception as error:  # the benchmark must report, not die
            outcome.errors.append(f"SweepExecutor.run: {error!r}")
            results = self._rerun_cells(spec, outcome)
        outcome.cells = [
            (cell_key(r.design, r.workload, r.capacity), r) for r in results
        ]
        return outcome

    @staticmethod
    def _rerun_cells(spec, outcome: Outcome) -> list:
        """After a failed sweep, run each cell alone to count the failures."""
        from repro.sim.executor import run_trial

        results = []
        for trial in spec.trials():
            try:
                results.append(run_trial(trial))
            except Exception as error:
                outcome.failed_cells += 1
                outcome.errors.append(f"{trial.describe()}: {error!r}")
        return results


class SampledPaper(_PaperGrid):
    name = "sampled_paper"
    accesses = 60_000

    def sampling(self):
        from repro.sampling.windows import SamplingConfig

        if self.tiny:
            return SamplingConfig(window_accesses=500, warmup_accesses=500,
                                  checkpoint_accesses=2_000, min_windows=2,
                                  max_windows=2, seed=self.seed)
        # min == max: a fixed window count, so the work is seed-independent.
        return SamplingConfig(window_accesses=1_000, warmup_accesses=1_000,
                              checkpoint_accesses=10_000, min_windows=3,
                              max_windows=3, seed=self.seed)


class FullPaper(_PaperGrid):
    name = "full_paper"
    accesses = 24_000


class TuneQueue(Workload):
    """A one-rung autotuner search over a fixed sub-grid, 2 forked workers."""

    name = "tune_queue"
    workers = 2

    def space(self):
        from repro.search.space import default_space

        stock = default_space()
        # dram-page + way + footprint + dirty under lru (batch warming),
        # random and rrip (both on the scalar fallback).
        return dataclasses.replace(
            stock,
            tags=tuple(t for t in stock.tags if t.kind == "dram-page"),
            hit_predictors=tuple(h for h in stock.hit_predictors
                                 if h.kind == "way"),
            fetches=tuple(f for f in stock.fetches if f.kind == "footprint"),
        )

    def tune_config(self):
        from repro.search.driver import TuneConfig

        space_size = len(self.space())
        if self.tiny:
            return TuneConfig(seed=self.seed, num_candidates=space_size,
                              rungs=1, scale=SCALE, num_accesses=12_000,
                              num_cores=CORES, window_accesses=500,
                              warmup_accesses=500, checkpoint_accesses=1_000,
                              min_windows=2, base_windows=2,
                              include_baselines=False)
        # One rung measures every candidate at a fixed window count; a
        # second rung would promote a seed-dependent number of survivors.
        return TuneConfig(seed=self.seed, num_candidates=space_size, rungs=1,
                          scale=SCALE, num_accesses=60_000, num_cores=CORES,
                          window_accesses=1_000, warmup_accesses=1_000,
                          checkpoint_accesses=6_000, min_windows=3,
                          base_windows=3, include_baselines=False)

    #: Windows per queue job: one, so every cell spans several jobs and the
    #: later jobs of a cell load the checkpoint an earlier one saved in the
    #: other worker process.
    window_batch = 1

    def spec(self):
        """The rung-0 sweep the search submits (what its archive holds)."""
        from repro.sim.spec import SweepSpec

        config = self.tune_config()
        return SweepSpec(
            designs=tuple(c.name for c in self.space().candidates()),
            workloads=(config.workload,), capacities=(config.capacity,),
            config=config.experiment_config(),
            sampling=config.rung_sampling(0),
        )

    def trials(self):
        from repro.sim.registry import DESIGNS

        for candidate in self.space().candidates():
            DESIGNS.register_spec(candidate, replace=True)
        return self.spec().trials()

    def sizes(self) -> Dict[str, object]:
        return {"tune": repr(self.tune_config()),
                "space": self.space().to_config(),
                "workers": self.workers, "window_batch": self.window_batch}

    def run(self, queue_dir: Path) -> Outcome:
        from repro.queue.jobstore import JobStore
        from repro.queue.service import SweepService
        from repro.search.driver import TuneSearch

        outcome = Outcome(planned=self.planned())
        service = SweepService(queue_dir, window_batch=self.window_batch)
        search = TuneSearch(self.tune_config(), space=self.space(),
                            service=service)
        state = None
        try:
            state = search.run(workers=self.workers)
        except Exception as error:
            outcome.errors.append(f"TuneSearch.run: {error!r}")
        failed_trials = set()
        with JobStore(service.db_path) as store:
            for row in store.sweeps():
                failed = store.failed_jobs(row["token"])
                outcome.failed_jobs += len(failed)
                failed_trials.update(job.trial_index for job in failed)
        outcome.failed_cells = len(failed_trials)
        if state is None:
            if not failed_trials:
                # The search raised without a failed job to blame: no cell
                # can be trusted.
                outcome.failed_cells = outcome.attempted_cells
            return outcome
        outcome.winners = list(state.winners)
        with service.archive() as archive:
            for rung in state.rungs:
                results = archive.get(rung["sweep_token"]) or []
                outcome.cells.extend(
                    (cell_key(r.design, r.workload, r.capacity), r)
                    for r in results)
        return outcome


WORKLOADS = {cls.name: cls for cls in (SampledPaper, FullPaper, TuneQueue)}


def clean_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
