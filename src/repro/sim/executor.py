"""Sweep execution: serial or process-parallel, with shared caches.

The executor turns a :class:`repro.sim.spec.SweepSpec` into a
:class:`repro.sim.resultset.ResultSet`.  Two properties make large grids
tractable:

* **Trace/baseline reuse.**  A trace has one identity,
  :func:`repro.trace.store.trace_token` of ``(workload, config)``: for a
  synthetic workload its generator-versioned profile and run parameters,
  for a trace file its path, size and mtime (so a rewritten file is a new
  trace).  :func:`cached_trace` is the one way a trial gets a trace, save
  that a raw binary trace file is memory-mapped instead, and caches it
  process-wide under that token.  The no-DRAM-cache baseline of accesses
  ``[start, stop)`` is a pure function of them, so
  :func:`window_baseline` caches it under ``(token, start, stop)``.
  A cached trace is one packed record array
  (:mod:`repro.engine.trace_array`) whichever way it was built, so every
  later cell slices it instead of decoding it again.  An N-cell grid that
  shares workloads and configurations pays for each distinct trace and
  baseline once, not N times -- and because every design in a cell group
  replays the *same* cached trace, comparisons stay fair automatically.
  Behind the in-memory layer sits the persistent on-disk
  :class:`repro.trace.store.TraceStore`: a generated trace is streamed
  into the store as it is produced and replayed from there by every later
  process, sweep, and benchmark run with the same key, so each distinct
  trace is generated once *ever* (disable or relocate via the
  ``REPRO_TRACE_STORE`` environment variable).

* **One measurement path.**  Every trial is measured by the windowed
  sampler's one window routine (:func:`run_trial`): a full replay is the
  one-window plan -- one window ``[split, n)`` warmed from ``[0, split)``
  -- and a sampled trial is many windows after a checkpointed prologue.

* **Deterministic parallelism.**  ``workers > 1`` runs the sweep on a private
  :class:`repro.queue.service.SweepService` in a temporary directory that
  is removed when the run returns: forked workers lease jobs (a full-replay
  trial's one window, or one batch of a sampled trial's windows), a worker
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
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.no_cache import NoDramCache
from repro.dramcache.stats import DramCacheStats
from repro.obs.core import current as obs_current, start_run
from repro.sim.experiment import ExperimentResult, ExperimentRunner, Workload
from repro.sim.resultset import ResultSet
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.trace.store import TraceStore, configured_root, trace_token
from repro.workloads.profile import WorkloadProfile

# Process-wide caches, keyed on the trace token (baselines also on the
# replayed bounds).  Worker processes get their own copies (pre-seeded by
# fork with the parent's contents); entries are deterministic in the key, so
# sharing across sweeps and processes never changes results.
_TRACE_CACHE: Dict[str, np.ndarray] = {}
_BASELINE_CACHE: Dict[Tuple[str, int, int], DramCacheStats] = {}

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

    Lookup order: the in-memory cache (keyed on :func:`trace_token`), then
    the on-disk trace store (shared across processes and runs), then
    generation -- which streams chunk-by-chunk into the store while
    materializing, so a synthetic trace is generated once *ever* per
    distinct key rather than once per process.  Trace-file workloads are
    simply loaded (they are already on disk); a file rewritten since its
    last load has a new token, so it is read again.

    Every path returns the same type: one packed
    :data:`~repro.engine.trace_array.RECORD_DTYPE` array (a store hit, the
    store's write-through on a miss, or ``build_trace``'s array when there
    is no usable store), so a first sweep and a repeat sweep replay
    identical objects.
    """
    token = trace_token(profile, runner.config)
    trace = _TRACE_CACHE.get(token)
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
    _TRACE_CACHE[token] = trace
    return trace


def window_baseline(identity: Optional[str], start: int, stop: int,
                    measure) -> DramCacheStats:
    """The no-cache baseline of accesses ``[start, stop)``, replayed once.

    The baseline of ``measure`` (accesses ``[start, stop)`` of the stream
    named ``identity``) is a pure function of those accesses, so every
    design measured over the same trace and bounds shares one replay.
    ``identity`` is the stream's :func:`trace_token`; ``None`` -- an
    injected stream with no cheap identity -- replays uncached.
    """
    key = (identity, start, stop)
    baseline = _BASELINE_CACHE.get(key) if identity is not None else None
    if baseline is None:
        baseline = NoDramCache().run(measure)
        if identity is not None:
            _BASELINE_CACHE[key] = baseline
    return baseline


def run_trial(trial: ExperimentSpec) -> ExperimentResult:
    """Run one trial, reusing the process-wide trace/baseline caches.

    Every trial runs through the windowed sampler: a full replay as the
    one-window plan, a trial carrying a ``sampling`` config as a
    checkpointed, adaptively terminated sampled run.  The sampler loads
    the trace itself (see :func:`cached_trace`).
    """
    with start_run("trial", design=trial.design, label=trial.result_label,
                   workload=trial.workload.name,
                   capacity=str(trial.capacity),
                   sampled=trial.sampling is not None):
        return _sampler(trial).run_design(
            trial.design, trial.workload, trial.capacity,
            associativity=trial.associativity,
            label=trial.label,
        )


def _sampler(trial: ExperimentSpec):
    """The windowed sampler of a trial (the one-window plan when full)."""
    from repro.sampling.runner import WindowedSampler

    return WindowedSampler(trial.sampling, config=trial.config,
                           system=trial.system)


def sampled_trial_total(trial: ExperimentSpec) -> int:
    """The length of the trace a trial measures.

    A synthetic trace is exactly ``num_accesses`` long, and a binary trace
    file's length is read off its header, so neither is opened; a binary
    file whose header cannot be read or was never finalized raises here,
    as the trial itself would.  Any other trace file is read through
    :func:`cached_trace` (once per process: forked workers inherit it), so
    a malformed one raises here too.
    """
    from repro.trace.binfmt import finalized_header, is_binary_trace
    from repro.workloads.tracefile import TraceFileWorkload

    if not isinstance(trial.workload, TraceFileWorkload):
        return trial.config.num_accesses
    if is_binary_trace(trial.workload.path):
        count = finalized_header(trial.workload.path).access_count
        return min(count, trial.config.num_accesses)
    return len(cached_trace(ExperimentRunner(trial.config), trial.workload))


def sampled_window_plan(trial: ExperimentSpec):
    """The trial's window plan: the one-window plan of a full replay, or
    the windows of a sampled trial.

    The plan is a pure function of (trace length, warm-up fraction,
    sampling config), so the queue planner, every window-batch worker, and
    the final assembly all derive the identical plan independently.
    """
    from repro.sampling.windows import plan_windows

    return plan_windows(sampled_trial_total(trial),
                        trial.config.warmup_fraction, trial.sampling)


def run_trial_windows(trial: ExperimentSpec,
                      window_indices: Sequence[int]) -> Dict[int, object]:
    """Measure a batch of a trial's planned windows (a work-queue job).

    Returns ``{window_index: WindowMeasurement}`` from the same window
    routine the serial path runs, so batches measured by different
    workers reassemble exactly.
    """
    with start_run("windows", design=trial.design, label=trial.result_label,
                   workload=trial.workload.name,
                   capacity=str(trial.capacity),
                   windows=len(window_indices)):
        return _sampler(trial).measure_windows(
            trial.design, trial.workload, trial.capacity, window_indices,
            associativity=trial.associativity,
        )


def assemble_sampled_trial(trial: ExperimentSpec,
                           measurements: Dict[int, object],
                           ) -> ExperimentResult:
    """Build a trial's final result from its window-job measurements.

    A full replay's one window is its result as measured.  A sampled trial
    runs the same stop walk as the serial sampled path over the plan's
    measurement order, so the aggregation stops at exactly the window the
    serial run would have stopped at; measurements past that point
    (speculatively measured batches) are discarded, and a window missing
    before it raises ``ValueError``.
    """
    sampler = _sampler(trial)
    with obs_current().span("assemble"):
        if trial.sampling is None:
            return sampler.window_result(trial.result_label, measurements[0],
                                         trial.workload.name, trial.capacity)
        run = sampler.assemble_run(
            trial.result_label, measurements,
            workload_name=trial.workload.name, capacity=trial.capacity,
            plan=sampled_window_plan(trial))
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
           "sampled_window_plan", "cached_trace",
           "window_baseline", "clear_caches", "get_trace_store"]
