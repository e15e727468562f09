"""Sweep execution: serial or process-parallel, with shared caches.

The executor turns a :class:`repro.sim.spec.SweepSpec` into a
:class:`repro.sim.resultset.ResultSet`.  Two properties make large grids
tractable:

* **Trace/baseline reuse.**  Synthetic traces are deterministic functions of
  ``(profile, scale, num_cores, seed, num_accesses)`` and the no-DRAM-cache
  baseline replay depends only on the trace and the warm-up split (or, for
  a sampled window, on the trace and the window's bounds), so both are
  cached process-wide under those keys.  A cached trace is one packed
  record array (:mod:`repro.engine.trace_array`) whichever way it was
  built, so every later cell slices it instead of decoding it again.  An
  N-cell grid that shares workloads and configurations pays for each
  distinct trace and baseline once, not N times -- and because every
  design in a cell group replays the *same* cached trace, comparisons stay
  fair automatically.  Behind the in-memory layer sits the persistent
  on-disk :class:`repro.trace.store.TraceStore`: a generated trace is
  streamed into the store as it is produced and replayed from there by
  every later process, sweep, and benchmark run with the same key, so each
  distinct trace is generated once *ever* (disable or relocate via the
  ``REPRO_TRACE_STORE`` environment variable).

* **Deterministic parallelism.**  ``workers > 1`` runs the sweep on a private
  :class:`repro.queue.service.SweepService` in a temporary directory that
  is removed when the run returns: forked workers lease jobs (one per
  full-replay trial, one per window batch of a sampled trial), a worker
  that dies costs only its job, and the jobs reassemble in grid order.
  Each trial is self-contained (its spec carries the full configuration,
  and per-trial seeding is derived from the spec, never from process
  state), so the parallel run produces *bit-identical* results to the
  serial path.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dramcache.stats import DramCacheStats
from repro.obs.core import current as obs_current, start_run
from repro.sim.experiment import ExperimentResult, ExperimentRunner, Workload
from repro.sim.resultset import ResultSet
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.trace.store import TraceStore, configured_root
from repro.workloads.profile import WorkloadProfile

#: Cache key of a materialized trace (see module docstring).
TraceKey = Tuple[Workload, int, int, int, int]

#: Cache key of a no-cache baseline: a full replay's ``(TraceKey, warm-up
#: fraction)``, or a sampled window's ``(stream identity, start, stop)``.
BaselineKey = Union[Tuple[TraceKey, float], Tuple[str, int, int]]

# Process-wide caches.  Worker processes get their own copies (pre-seeded by
# fork with the parent's contents); entries are deterministic in the key, so
# sharing across sweeps and processes never changes results.
_TRACE_CACHE: Dict[TraceKey, np.ndarray] = {}
_BASELINE_CACHE: Dict[BaselineKey, DramCacheStats] = {}

# The process-wide on-disk trace store (see repro.trace.store).  Rebuilt
# lazily whenever REPRO_TRACE_STORE changes, so tests and callers can point
# the executor at a different directory -- or disable it -- at any time.
_TRACE_STORE: Optional[TraceStore] = None
_TRACE_STORE_ROOT: Optional[Path] = None


def get_trace_store() -> Optional[TraceStore]:
    """The on-disk store shared by all sweeps; ``None`` when disabled."""
    global _TRACE_STORE, _TRACE_STORE_ROOT
    root = configured_root()
    if root is None:
        _TRACE_STORE = None
        _TRACE_STORE_ROOT = None
    elif _TRACE_STORE is None or root != _TRACE_STORE_ROOT:
        _TRACE_STORE = TraceStore(root=root)
        _TRACE_STORE_ROOT = root
    return _TRACE_STORE


def trace_key(profile: Workload,
              config) -> TraceKey:
    """The identity of a materialized trace."""
    return (profile, config.scale, config.num_cores, config.seed,
            config.num_accesses)


def clear_caches() -> None:
    """Drop the in-memory trace and baseline caches (mainly for tests).

    Window baselines go too, so a measurement that starts after this call
    replays every baseline it needs.

    The on-disk :class:`TraceStore` is persistent by design and is *not*
    touched; use ``get_trace_store().clear()`` for that.
    """
    _TRACE_CACHE.clear()
    _BASELINE_CACHE.clear()


def cached_trace(runner: ExperimentRunner,
                 profile: Workload) -> np.ndarray:
    """The trace for (profile, runner.config), built once per process.

    Lookup order: the in-memory cache, then the on-disk trace store
    (shared across processes and runs), then generation -- which streams
    chunk-by-chunk into the store while materializing, so a synthetic trace
    is generated once *ever* per distinct key rather than once per process.
    Trace-file workloads are simply loaded (they are already on disk).

    Every path returns the same type: one packed
    :data:`~repro.engine.trace_array.RECORD_DTYPE` array (a store hit, the
    store's write-through on a miss, or ``build_trace``'s array when there
    is no usable store), so a first sweep and a repeat sweep replay
    identical objects.
    """
    key = trace_key(profile, runner.config)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return trace

    store = get_trace_store() if isinstance(profile, WorkloadProfile) else None
    if store is not None:
        config = runner.config
        store_key = store.key(profile, config.scale, config.num_cores,
                              config.seed, config.num_accesses)
        try:
            trace = store.load(store_key)
            if trace is None:
                obs_run = obs_current()
                with obs_run.span("trace_generate"):
                    trace = store.put_chunks(
                        store_key, runner.iter_trace_chunks(profile),
                        num_cores=config.num_cores, collect=True,
                    )
                obs_run.counter("generated_accesses", len(trace))
        except OSError:
            # Unreadable/unwritable store directory must never break a
            # sweep; fall back to plain in-memory generation.
            trace = None

    if trace is None:
        trace = runner.build_trace(profile)
    _TRACE_CACHE[key] = trace
    return trace


def cached_baseline(runner: ExperimentRunner, profile: Workload,
                    trace) -> DramCacheStats:
    """The no-cache baseline for (profile, runner.config), replayed once."""
    key = (trace_key(profile, runner.config), runner.config.warmup_fraction)
    baseline = _BASELINE_CACHE.get(key)
    if baseline is None:
        _, measure = runner.split_trace(trace)
        baseline = runner.no_cache_baseline(measure)
        _BASELINE_CACHE[key] = baseline
    return baseline


def window_baseline(identity: Optional[str], start: int, stop: int,
                    measure) -> DramCacheStats:
    """The no-cache baseline of one sampled window, replayed once.

    The baseline of ``measure`` (accesses ``[start, stop)`` of the stream
    named ``identity``) is a pure function of those accesses, so every
    design measured over the same trace and window plan shares one replay.
    ``identity`` is the stream's authoritative identity (a trace token);
    ``None`` -- a stream with no cheap identity -- replays uncached.
    """
    key = (identity, start, stop)
    baseline = _BASELINE_CACHE.get(key) if identity is not None else None
    if baseline is None:
        baseline = ExperimentRunner.no_cache_baseline(measure)
        if identity is not None:
            _BASELINE_CACHE[key] = baseline
    return baseline


def run_trial(trial: ExperimentSpec) -> ExperimentResult:
    """Run one trial, reusing the process-wide trace/baseline caches.

    A trial carrying a ``sampling`` config runs through the checkpointed
    windowed sampler instead of a full replay; both paths share the cached
    trace, and a binary trace-file workload is windowed seekably (never
    fully materialized) on the sampled path.
    """
    with start_run("trial", design=trial.design, label=trial.result_label,
                   workload=trial.workload.name,
                   capacity=str(trial.capacity),
                   sampled=trial.sampling is not None) as obs_run:
        if trial.sampling is not None:
            return _run_sampled_trial(trial)
        runner = ExperimentRunner(trial.config, system=trial.system)
        with obs_run.span("trace_load"):
            trace = cached_trace(runner, trial.workload)
        with obs_run.span("baseline"):
            baseline = cached_baseline(runner, trial.workload, trace)
        return runner.run_design(
            trial.design, trial.workload, trial.capacity,
            trace=trace,
            associativity=trial.associativity,
            label=trial.label,
            baseline_stats=baseline,
        )


def _sampled_trial_inputs(trial: ExperimentSpec):
    """The (sampler, trace, trace_identity) triple of a sampled trial."""
    from repro.sampling.runner import WindowedSampler
    from repro.trace.binfmt import is_binary_trace
    from repro.workloads.tracefile import TraceFileWorkload

    sampler = WindowedSampler(trial.sampling, config=trial.config,
                              system=trial.system)
    trace = None
    trace_identity = None
    if not (isinstance(trial.workload, TraceFileWorkload)
            and is_binary_trace(trial.workload.path)):
        # Synthetic (and non-binary file) workloads replay the same cached
        # trace full runs use; binary files stay on disk and are windowed
        # through the mmap/chunk-index readers instead.
        from repro.sampling.checkpoints import trace_token

        runner = ExperimentRunner(trial.config, system=trial.system)
        with obs_current().span("trace_load"):
            trace = cached_trace(runner, trial.workload)
        # The cached trace is canonical for (workload, config) by
        # construction, so on-disk checkpoints key on the authoritative
        # generator-versioned identity rather than a content hash.
        trace_identity = trace_token(trial.workload, trial.config)
    return sampler, trace, trace_identity


def _run_sampled_trial(trial: ExperimentSpec) -> ExperimentResult:
    sampler, trace, trace_identity = _sampled_trial_inputs(trial)
    return sampler.run_design(
        trial.design, trial.workload, trial.capacity,
        trace=trace,
        associativity=trial.associativity,
        label=trial.label,
        trace_identity=trace_identity,
    )


def sampled_trial_total(trial: ExperimentSpec) -> Optional[int]:
    """The window provider's trace length, computed without opening it.

    ``None`` means the length cannot be known up front (a non-binary trace
    file, or a binary stream that was never finalized), in which case the
    work queue falls back to scheduling the whole trial as one job.
    """
    from repro.trace.binfmt import is_binary_trace, read_header
    from repro.trace.errors import TraceFormatError
    from repro.workloads.tracefile import TraceFileWorkload

    if isinstance(trial.workload, TraceFileWorkload):
        if not is_binary_trace(trial.workload.path):
            return None
        try:
            count = read_header(trial.workload.path).access_count
        except (TraceFormatError, OSError):
            return None
        if count is None:
            return None
        return min(count, trial.config.num_accesses)
    # Synthetic traces materialize exactly num_accesses records.
    return trial.config.num_accesses


def sampled_window_plan(trial: ExperimentSpec):
    """The trial's window plan, or ``None`` when it cannot be pre-planned.

    The plan is a pure function of (trace length, warm-up fraction,
    sampling config), so the queue planner, every window-batch worker, and
    the final assembly all derive the identical plan independently.
    """
    from repro.sampling.windows import plan_windows

    if trial.sampling is None:
        return None
    total = sampled_trial_total(trial)
    if total is None:
        return None
    return plan_windows(total, trial.config.warmup_fraction, trial.sampling)


def run_trial_windows(trial: ExperimentSpec,
                      window_indices: Sequence[int]) -> Dict[int, object]:
    """Measure a batch of a sampled trial's windows (a work-queue job).

    Returns ``{window_index: WindowMeasurement}`` from the same window
    routine the serial sampled path runs, so batches measured by different
    workers reassemble exactly.
    """
    with start_run("windows", design=trial.design, label=trial.result_label,
                   workload=trial.workload.name,
                   capacity=str(trial.capacity),
                   windows=len(window_indices)):
        sampler, trace, trace_identity = _sampled_trial_inputs(trial)
        return sampler.measure_windows(
            trial.design, trial.workload, trial.capacity, window_indices,
            trace=trace,
            associativity=trial.associativity,
            trace_identity=trace_identity,
        )


def assemble_sampled_trial(trial: ExperimentSpec,
                           measurements: Dict[int, object],
                           ) -> ExperimentResult:
    """Aggregate window-batch measurements into the trial's final result.

    Runs the same stop walk as the serial sampled path over the plan's
    measurement order, so the aggregation stops at exactly the window the
    serial run would have stopped at; measurements past that point
    (speculatively measured batches) are discarded, and a window missing
    before it raises ``ValueError``.
    """
    from repro.sampling.runner import WindowedSampler

    plan = sampled_window_plan(trial)
    if plan is None:
        raise ValueError(
            f"trial {trial.describe()} cannot be window-planned up front"
        )
    sampler = WindowedSampler(trial.sampling, config=trial.config,
                              system=trial.system)
    with obs_current().span("assemble"):
        run = sampler.assemble_run(trial.result_label, measurements,
                                   workload_name=trial.workload.name,
                                   capacity=trial.capacity, plan=plan)
        return run.results()[0]


class SweepExecutor:
    """Runs every trial of a sweep, optionally across worker processes.

    ``workers=1`` (the default) runs in-process and is the reference
    semantics.  ``workers > 1`` (``None`` picks ``os.cpu_count()``) runs the
    sweep on a private :class:`repro.queue.service.SweepService` whose job
    store and archive live in a temporary directory, removed when ``run``
    returns or raises: nothing persists between runs, and the trace store
    may be disabled.  The result is identical to the serial run.

    ``queue`` switches execution onto the caller's durable work queue: pass
    a :class:`repro.queue.service.SweepService` and ``run`` plans the sweep
    into idempotent on-disk jobs, executes them with crash-resumable
    leased workers, archives the results, and returns the same bit-identical
    :class:`ResultSet` -- so existing callers opt into durability without
    any API change.

    ``progress`` fires once per trial, when the trial *completes* (parallel
    runs report completions as they happen, so indices may interleave --
    results are still assembled in exact grid order).
    """

    def __init__(self, workers: Optional[int] = 1,
                 progress: Optional[Callable[[int, int, ExperimentSpec], None]] = None,
                 queue=None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive (or None for auto)")
        self.workers = workers
        self.progress = progress
        self.queue = queue

    def run(self, spec: SweepSpec) -> ResultSet:
        """Execute all trials of ``spec`` in deterministic grid order."""
        if self.queue is not None:
            return self.queue.run(spec, workers=self.workers,
                                  progress=self.progress)
        workers = self.workers or os.cpu_count() or 1
        if workers > 1:
            from repro.queue.service import SweepService

            with tempfile.TemporaryDirectory(prefix="repro-sweep-") as root:
                return SweepService(root).run(spec, workers=workers,
                                              progress=self.progress)
        trials = spec.trials()
        results = []
        for index, trial in enumerate(trials):
            results.append(run_trial(trial))
            if self.progress is not None:
                self.progress(index, len(trials), trial)
        return ResultSet(results)


def run_sweep(spec: SweepSpec, workers: Optional[int] = 1,
              progress: Optional[Callable[[int, int, ExperimentSpec], None]] = None,
              ) -> ResultSet:
    """Convenience wrapper: ``SweepExecutor(workers).run(spec)``."""
    return SweepExecutor(workers=workers, progress=progress).run(spec)


__all__ = ["SweepExecutor", "run_sweep", "run_trial", "run_trial_windows",
           "assemble_sampled_trial", "sampled_trial_total",
           "sampled_window_plan", "cached_trace", "cached_baseline",
           "window_baseline", "trace_key", "clear_caches", "TraceKey",
           "get_trace_store"]
