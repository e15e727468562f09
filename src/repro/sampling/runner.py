"""The windowed sampler: checkpointed, confidence-terminated measurement.

One sampled run of N designs over one trace proceeds as:

0. **Load** -- the sampler opens its own trace: a raw binary trace file
   as :class:`~repro.sampling.seekable.FileWindows` (memory-mapped), any
   other workload through :func:`repro.sim.executor.cached_trace`, which
   decodes it once per process.  The stream is named by
   :func:`repro.trace.store.trace_token`, which keys its checkpoints and
   window baselines; a trace the caller injects is named by its content
   digest instead, and its baselines are not cached.
1. **Plan** -- :func:`repro.sampling.windows.plan_windows` places up to
   ``max_windows`` windows over the measurement region and fixes a
   deterministic shuffled measurement order.
2. **Checkpoint** -- each design replays the functional-warming prologue
   once and freezes its warm state via the
   :class:`~repro.dramcache.base.StateSnapshot` protocol.  This is the only
   long replay; every window afterwards starts from the checkpoint.
3. **Measure** -- one window routine measures a window for every warm
   design: read the window's warm-up and measure slices, replay the
   measure slice through a fresh no-DRAM-cache baseline (so per-window
   speedups are matched pairs), then per design restore the checkpoint,
   replay the short warm-up slice, and measure.  The baseline is a pure
   function of the window's accesses, so it replays once per trace and
   window (:func:`repro.sim.executor.window_baseline`) and every design
   cell of a sweep over that trace and plan shares it.
4. **Terminate** -- one stop walk takes windows in plan order, feeds each
   design's per-window series, and after every window asks the
   :class:`~repro.stats.sampling.AdaptiveStopper` whether every tracked
   series (miss ratio and speedup of every design) has converged: it stops
   as soon as all 95% CIs meet the target relative error, or at the window
   budget.  The serial sampler (:meth:`WindowedSampler.compare`) feeds the
   walk live from the window routine; the work queue's window-batch jobs
   (:meth:`WindowedSampler.measure_windows`) run only the window routine,
   and their reassembly (:meth:`WindowedSampler.assemble_run`) feeds the
   same walk from the jobs' results.

A full replay is the one-window plan (``WindowedSampler(None, ...)``, see
:func:`~repro.sampling.windows.plan_windows`): no prologue, so each design
is measured as built -- no snapshot, restore or stored checkpoint -- over
the window ``[split, n)``, warmed from ``[0, split)`` by the window
routine.  Its result is that one measurement as it stands
(:meth:`WindowedSampler.window_result`): no stop walk, no ``sampling_*``
extras.

Everything derives from ``(SamplingConfig, ExperimentConfig, trace)``; the
process-wide caches hold only values determined by their keys, so sampled
sweeps are bit-identical between the serial and process-parallel
executors.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config.system import SystemConfig
from repro.obs.core import current as obs_current
from repro.sampling.seekable import FileWindows, InMemoryWindows
from repro.sampling.windows import (
    MeasurementWindow,
    SamplingConfig,
    WindowPlan,
    plan_windows,
)
from repro.sim.experiment import (
    MEAN_FIELDS,
    SUM_FIELDS,
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    Workload,
    measured_fields,
    replay,
    warm_up,
)
from repro.sim.factory import make_design
from repro.sim.performance import PerformanceModel
from repro.sim.resultset import ResultSet
from repro.stats.confidence import ConfidenceInterval
from repro.stats.sampling import AdaptiveStopper, WindowSeries, matched_pair_deltas
from repro.trace.binfmt import CODEC_NONE, is_binary_trace, read_header
from repro.trace.record import MemoryAccess
from repro.trace.store import trace_token
from repro.utils.units import format_size, parse_size, SizeLike
from repro.workloads.tracefile import TraceFileWorkload

#: Metrics whose per-window series drive adaptive termination, mapped to
#: the absolute CI half-width floor of their stopper (a speedup is O(1), so
#: its floor only matters for pathological near-zero means; a miss ratio
#: can legitimately be 0, where zero variance alone decides).
TRACKED_METRICS = {
    "miss_ratio": 0.0,
    "speedup_vs_no_cache": 1e-6,
}


@dataclass(frozen=True)
class WindowMeasurement:
    """Everything measured in one window for one design."""

    window: MeasurementWindow
    miss_ratio: float
    hit_ratio: float
    average_hit_latency: float
    average_miss_latency: float
    average_access_latency: float
    offchip_blocks_per_access: float
    offchip_demand_blocks: int
    offchip_prefetch_blocks: int
    offchip_writeback_blocks: int
    offchip_row_activations: int
    stacked_row_activations: int
    speedup_vs_no_cache: float
    user_ipc: float
    extra_metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class SampledDesignResult:
    """One design's windows, series, and aggregate result."""

    design: str
    windows: List[WindowMeasurement] = field(default_factory=list)
    series: Dict[str, WindowSeries] = field(default_factory=dict)

    @property
    def windows_measured(self) -> int:
        return len(self.windows)

    def interval(self, metric: str = "miss_ratio") -> ConfidenceInterval:
        """95% CI of one tracked metric over the measured windows."""
        return self.series[metric].interval()


@dataclass
class SampledRun:
    """The full outcome of one sampled measurement (all designs)."""

    plan: WindowPlan
    sampling: SamplingConfig
    workload: str
    capacity: str
    scale: int
    designs: "Dict[str, SampledDesignResult]"
    #: Window indices measured, in measurement order.
    measured: List[int]
    #: True when every tracked CI met its target (sampling may also have
    #: spent the whole window budget and *still* converged on the last
    #: window, so this is the stopper's verdict, not a count comparison).
    converged: bool

    @property
    def windows_measured(self) -> int:
        return len(self.measured)

    @property
    def simulated_accesses(self) -> int:
        """Accesses one design simulated (checkpoint + warm-ups + windows)."""
        return self.plan.simulated_accesses(self.windows_measured)

    @property
    def sampled_fraction(self) -> float:
        """Fraction of the trace one design simulated."""
        return self.plan.sampled_fraction(self.windows_measured)

    def delta(self, metric: str, design_a: str,
              design_b: str) -> WindowSeries:
        """Matched-pair per-window ``design_a - design_b`` differences."""
        return matched_pair_deltas(
            self.designs[design_a].series[metric],
            self.designs[design_b].series[metric],
            name=f"{metric}[{design_a}-{design_b}]",
        )

    def results(self) -> List[ExperimentResult]:
        """Aggregate one :class:`ExperimentResult` per design."""
        return [self._aggregate(label, sampled)
                for label, sampled in self.designs.items()]

    def to_resultset(self) -> ResultSet:
        return ResultSet(self.results())

    # ------------------------------------------------------------------ #
    def _aggregate(self, label: str,
                   sampled: SampledDesignResult) -> ExperimentResult:
        windows = sampled.windows
        n = len(windows)
        if n == 0:
            raise ValueError(f"design {label!r} measured no windows")

        def total(metric: str):
            return sum(getattr(w, metric) for w in windows)

        fields = {name: total(name) / n for name in MEAN_FIELDS}
        fields.update((name, total(name)) for name in SUM_FIELDS)
        miss_interval = sampled.interval("miss_ratio")
        speedup_interval = sampled.interval("speedup_vs_no_cache")
        # The tracked metrics report their CI's mean (window-index order).
        fields["miss_ratio"] = miss_interval.mean
        result = ExperimentResult(
            design=label,
            workload=self.workload,
            capacity=self.capacity,
            scale=self.scale,
            accesses_measured=sum(w.window.measure_accesses for w in windows),
            **fields,
            speedup_vs_no_cache=speedup_interval.mean,
            user_ipc=total("user_ipc") / n,
        )
        extra_keys = sorted({k for w in windows for k in w.extra_metrics})
        _set_design_metrics(result, (
            (key, sum(w.extra_metrics.get(key, 0.0) for w in windows) / n)
            for key in extra_keys))
        result.extra.update({
            "sampling_windows": float(n),
            "sampling_windows_planned": float(len(self.plan.windows)),
            "sampling_fraction": self.sampled_fraction,
            "sampling_miss_ratio_half_width": miss_interval.half_width,
            "sampling_miss_ratio_rel_err": miss_interval.relative_error,
            "sampling_speedup_half_width": speedup_interval.half_width,
            "sampling_speedup_rel_err": speedup_interval.relative_error,
        })
        return result


def _set_design_metrics(result: ExperimentResult, metrics) -> None:
    """Record a design's ``(key, value)`` metrics on ``result``.

    :data:`ExperimentResult.METRIC_FIELDS` keys set their field; every
    other key becomes a float in ``result.extra``.
    """
    for key, value in metrics:
        if key in ExperimentResult.METRIC_FIELDS:
            setattr(result, key, value)
        else:
            result.extra[key] = float(value)


class WindowedSampler:
    """Runs checkpointed, window-scheduled, adaptively-terminated trials.

    ``sampling=None`` runs the one-window plan of a full replay.

    Warm states persist in the on-disk checkpoint store
    (:mod:`repro.sampling.checkpoints`) whenever it is enabled
    (``REPRO_TRACE_STORE`` / ``REPRO_CHECKPOINTS``).  Checkpoints are keyed
    on the trace token, the design's registry token (its component spec),
    the build parameters, and the prologue extent -- a hit skips the one
    long replay entirely, bit-identically.
    """

    def __init__(self, sampling: Optional[SamplingConfig] = None,
                 config: Optional[ExperimentConfig] = None,
                 system: Optional[SystemConfig] = None) -> None:
        self.sampling = sampling
        self.config = config or ExperimentConfig()
        self.system = system or SystemConfig()
        self.performance = PerformanceModel(self.system)

    # ------------------------------------------------------------------ #
    def _provider(self, workload: Workload,
                  trace: Optional[Sequence[MemoryAccess]]):
        """The window source of a run and the identity of its stream.

        Returns ``(provider, identity)``.  An injected ``trace`` need not
        be the canonical trace of the (workload, config) pair, so it has no
        cheap identity (``None``).  Otherwise the sampler loads the trace
        itself and the identity is its :func:`trace_token`: a raw binary
        trace file is mapped by :class:`FileWindows`; any other workload,
        a gzip binary file included, comes from
        :func:`repro.sim.executor.cached_trace`, so it is decoded (or
        generated) once per process.
        """
        if trace is not None:
            return InMemoryWindows(trace), None
        identity = trace_token(workload, self.config)
        if (isinstance(workload, TraceFileWorkload)
                and is_binary_trace(workload.path)
                and read_header(workload.path).codec == CODEC_NONE):
            # A raw file is mapped, so a window reads only its own pages.
            return (FileWindows(workload.path,
                                limit=self.config.num_accesses), identity)
        from repro.sim.executor import cached_trace

        return (InMemoryWindows(cached_trace(ExperimentRunner(self.config),
                                             workload)), identity)

    def _measure_window(self, provider, plan: WindowPlan, window_index: int,
                        designs, profile, identity: Optional[str],
                        span) -> List[WindowMeasurement]:
        """Measure one planned window for every warm design, in order.

        Reads the window's warm-up and measure slices as packed record
        arrays, takes the measure slice's no-DRAM-cache baseline (a fresh
        model per window keeps windows independent, and every design's
        speedup is a matched pair against it; it replays once per stream
        ``identity`` and window, see
        :func:`repro.sim.executor.window_baseline`), then per design
        restores the checkpoint, warms, and measures.  The one window
        routine of :meth:`compare` and :meth:`measure_windows`.  A design
        without a checkpoint (the one-window plan's) is measured as built.
        With telemetry on, those steps are timed as the ``baseline``,
        ``restore``, ``window_warm`` and ``replay`` phases inside the
        caller's ``measure`` span.
        """
        from repro.sim.executor import window_baseline

        obs_run = obs_current()
        window = plan.windows[window_index]
        warmup = provider.read_array(window.warmup_start, window.start)
        measure = provider.read_array(window.start, window.stop)
        # Child phases of ``measure``: where a window's time goes.
        with obs_run.span("baseline"):
            baseline = window_baseline(identity, window.start, window.stop,
                                       measure)
        outcomes = []
        for design, checkpoint in designs:
            if checkpoint is not None:
                with obs_run.span("restore"):
                    design.restore_state(checkpoint)
            with obs_run.span("window_warm"):
                if len(warmup):
                    warm_up(design, warmup, span)
                else:
                    design.reset_stats()
            activations_before = (design.memory.row_activations,
                                  design.stacked.row_activations)
            with obs_run.span("replay") as replay_span:
                replay(design, measure, replay_span)
            stats = design.cache_stats
            outcomes.append(WindowMeasurement(
                window=window,
                **measured_fields(design, activations_before),
                speedup_vs_no_cache=self.performance.speedup(
                    stats, baseline, profile),
                user_ipc=self.performance.estimate(stats, profile).user_ipc,
                extra_metrics=dict(design.extra_metrics()),
            ))
        span.add("windows", 1)
        if obs_run.enabled:
            obs_run.counter("accesses", len(measure) * len(designs))
            obs_run.counter("warmup_accesses", len(warmup) * len(designs))
        return outcomes

    # ------------------------------------------------------------------ #
    def compare(self, design_names: Sequence[str], workload: Workload,
                capacity: SizeLike,
                trace: Optional[Sequence[MemoryAccess]] = None,
                associativity: Optional[int] = None,
                labels: Optional[Sequence[str]] = None) -> SampledRun:
        """Sample every design over the *same* windows (matched pairs).

        ``trace`` injects a pre-materialized access sequence, identified by
        a full content hash; otherwise the sampler loads the workload's
        trace itself (see :meth:`_provider`).
        """
        if self.sampling is None:
            raise ValueError("compare needs a SamplingConfig; a sampler "
                             "without one measures the one-window plan "
                             "(run_design)")
        if not design_names:
            raise ValueError("need at least one design to sample")
        from repro.sim.registry import DESIGNS

        for name in design_names:
            DESIGNS.resolve(name)  # fail on typos before any trace work
        labels = list(labels) if labels is not None else list(design_names)
        if len(labels) != len(design_names):
            raise ValueError("labels must match design_names one-to-one")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate sampled design labels: {labels}")

        with self._opened(workload, trace) as (provider, identity, plan):
            designs = self._start_states(provider, identity, plan,
                                         design_names, capacity,
                                         associativity, trace)
            with obs_current().span("measure") as span:
                return self._walk(
                    plan, labels,
                    lambda index: self._measure_window(
                        provider, plan, index, designs, workload, identity,
                        span),
                    workload.name, capacity,
                )

    def _stoppers(self, plan: WindowPlan) -> Dict[str, AdaptiveStopper]:
        """One adaptive stopper per tracked metric, sized to the plan."""
        return {
            metric: AdaptiveStopper(
                target_relative_error=self.sampling.target_relative_error,
                min_windows=min(self.sampling.min_windows, len(plan.windows)),
                max_windows=len(plan.windows),
                absolute_floor=floor,
            )
            for metric, floor in TRACKED_METRICS.items()
        }

    @staticmethod
    def _trace_convergence(obs_run, window_index, measured, designs) -> None:
        """Emit one manifest event per measured window (enabled path only).

        Records the worst relative CI error across designs for every
        tracked metric -- the stopper-convergence trace that lets
        ``repro runs show`` explain *why* a sampled trial stopped where it
        did (or spent its whole window budget).
        """
        fields = {}
        for metric in TRACKED_METRICS:
            worst = 0.0
            for sampled in designs:
                try:
                    error = sampled.series[metric].interval().relative_error
                except (ValueError, ZeroDivisionError):
                    continue
                if error != error:  # NaN (undefined near-zero mean)
                    continue
                worst = max(worst, error)
            fields[f"rel_err_{metric}"] = round(worst, 6)
        obs_run.event("window", index=window_index, measured=measured,
                      **fields)

    def _start_states(self, provider, identity, plan, design_names,
                      capacity, associativity, trace):
        """Build every design at the plan's start state.

        Returns ``[(design, checkpoint)]``, timed as the ``warmup`` phase.
        Without a prologue the design as built is the start state: nothing
        is warmed or stored, and a one-window plan measures the design as
        it is (checkpoint ``None``) while a longer plan rewinds it to a
        snapshot.  Otherwise each design restores its checkpoint from the
        store or replays the prologue once -- the one long replay, tagging
        the ``warmup`` span with the warming engine -- and saves it.
        Stored checkpoints key on the stream's ``identity``, or on the
        content digest of an injected trace.
        """
        from repro.sampling.checkpoints import (
            CheckpointStore,
            design_token,
            sequence_token,
        )

        store = CheckpointStore.default() if plan.checkpoint_accesses else None
        if store is not None:
            stream_token = (identity if identity is not None
                            else sequence_token(trace))
        prologue = None
        designs = []
        with obs_current().span("warmup") as span:
            for name in design_names:
                design = make_design(
                    name, capacity, scale=self.config.scale,
                    num_cores=self.config.num_cores,
                    associativity=associativity,
                )
                if not plan.checkpoint_accesses:
                    designs.append((design, design.snapshot_state()
                                    if len(plan.windows) > 1 else None))
                    continue
                checkpoint = None
                if store is not None:
                    key = store.key(
                        trace=stream_token,
                        design=design_token(name),
                        capacity=format_size(parse_size(capacity)),
                        scale=self.config.scale,
                        num_cores=self.config.num_cores,
                        associativity=associativity,
                        checkpoint_start=plan.checkpoint_start,
                        checkpoint_stop=plan.checkpoint_stop,
                    )
                    checkpoint = store.load(key)
                    if checkpoint is not None:
                        try:
                            design.restore_state(checkpoint)
                        except ValueError:
                            # Stale shape (e.g. a design redefined
                            # in-process under the same token): fall back
                            # to warming.
                            checkpoint = None
                if checkpoint is None:
                    # Functional warming up to the measurement region,
                    # frozen once, restored before every window -- and
                    # persisted so later processes skip it too.
                    if prologue is None:
                        prologue = provider.read_array(plan.checkpoint_start,
                                                       plan.checkpoint_stop)
                    warm_up(design, prologue, span)
                    checkpoint = design.snapshot_state()
                    if store is not None:
                        store.save(key, checkpoint)
                designs.append((design, checkpoint))
        return designs

    @contextmanager
    def _opened(self, workload, trace):
        """Open the window source and plan its windows.

        Yields ``(provider, identity, plan)`` and closes the provider on
        exit: the shared setup of :meth:`compare` and
        :meth:`measure_windows`, which then build their designs at the
        plan's start state (:meth:`_start_states`).
        """
        with obs_current().span("trace_load"):
            provider, identity = self._provider(workload, trace)
        try:
            yield provider, identity, plan_windows(
                provider.total, self.config.warmup_fraction, self.sampling)
        finally:
            provider.close()

    def _walk(self, plan: WindowPlan, labels: Sequence[str],
              measure: Callable[[int], List[WindowMeasurement]],
              workload_name: str, capacity: SizeLike) -> SampledRun:
        """The one stop walk: windows in plan order until the CIs converge.

        ``measure(index)`` yields window ``index``'s measurements, one per
        label -- measured live by :meth:`compare`, looked up in finished
        window-batch jobs by :meth:`assemble_run`.  Each feeds one series
        per (design, tracked metric); after every window the stoppers judge
        all designs' series together, so both callers stop after the same
        window and build the same :class:`SampledRun`.
        """
        obs_run = obs_current()
        stoppers = self._stoppers(plan)
        designs = {
            label: SampledDesignResult(design=label, series={
                metric: WindowSeries(f"{metric}[{label}]")
                for metric in TRACKED_METRICS
            })
            for label in labels
        }
        measured: List[int] = []
        for window_index in plan.order:
            for sampled, outcome in zip(designs.values(),
                                        measure(window_index)):
                sampled.windows.append(outcome)
                for metric, series in sampled.series.items():
                    series.add(window_index, getattr(outcome, metric))
            measured.append(window_index)
            if obs_run.enabled:
                self._trace_convergence(obs_run, window_index, len(measured),
                                        designs.values())
            if all(stopper.should_stop([sampled.series[metric]
                                        for sampled in designs.values()])
                   for metric, stopper in stoppers.items()):
                break
        return SampledRun(
            plan=plan,
            sampling=self.sampling,
            workload=workload_name,
            capacity=format_size(parse_size(capacity)),
            scale=self.config.scale,
            designs=designs,
            measured=measured,
            converged=all(stoppers[metric].converged(sampled.series[metric])
                          for sampled in designs.values()
                          for metric in TRACKED_METRICS),
        )

    def measure_windows(self, design_name: str, workload: Workload,
                        capacity: SizeLike,
                        window_indices: Sequence[int],
                        trace: Optional[Sequence[MemoryAccess]] = None,
                        associativity: Optional[int] = None,
                        ) -> Dict[int, WindowMeasurement]:
        """Measure an explicit subset of the planned windows for one design.

        This is the distributed-execution primitive: the work queue splits a
        sampled trial's window plan into independent batches, and each batch
        job calls this with its indices.  It runs the same window routine as
        :meth:`compare` -- same warm checkpoint, same fresh matched-pair
        baseline -- so a window measured here equals the one the live walk
        measures, whichever process, batch, or ordering produced it.
        """
        from repro.sim.registry import DESIGNS

        DESIGNS.resolve(design_name)
        with self._opened(workload, trace) as (provider, identity, plan):
            for index in window_indices:
                if not 0 <= index < len(plan.windows):
                    raise ValueError(
                        f"window index {index} outside the plan "
                        f"({len(plan.windows)} windows); was the trace "
                        f"modified after the sweep was planned?"
                    )
            designs = self._start_states(provider, identity, plan,
                                         [design_name], capacity,
                                         associativity, trace)
            with obs_current().span("measure") as span:
                return {
                    index: self._measure_window(provider, plan, index,
                                                designs, workload, identity,
                                                span)[0]
                    for index in window_indices
                }

    def assemble_run(self, label: str,
                     measurements: "Dict[int, WindowMeasurement]",
                     workload_name: str, capacity: SizeLike,
                     plan: WindowPlan) -> SampledRun:
        """Reconstruct a :class:`SampledRun` from pre-measured windows.

        Runs the same stop walk as :meth:`compare`, looking each window up
        in ``measurements``, so it terminates at exactly the window the live
        run would have stopped at -- measurements past that point
        (speculative windows a distributed execution measured eagerly) are
        discarded.
        """
        def lookup(window_index: int) -> List[WindowMeasurement]:
            outcome = measurements.get(window_index)
            if outcome is None:
                raise ValueError(
                    f"window {window_index} has no measurement; the sweep's "
                    f"window-batch jobs are incomplete"
                )
            return [outcome]

        return self._walk(plan, [label], lookup, workload_name, capacity)

    def window_result(self, label: str, measurement: WindowMeasurement,
                      workload_name: str,
                      capacity: SizeLike) -> ExperimentResult:
        """The result of a one-window run: its one measurement as it stands.

        The full-replay result -- no stop walk, no averaging and no
        ``sampling_*`` extras.
        """
        result = ExperimentResult(
            design=label,
            workload=workload_name,
            capacity=format_size(parse_size(capacity)),
            scale=self.config.scale,
            accesses_measured=measurement.window.measure_accesses,
            **{name: getattr(measurement, name)
               for name in MEAN_FIELDS + SUM_FIELDS},
            speedup_vs_no_cache=measurement.speedup_vs_no_cache,
            user_ipc=measurement.user_ipc,
        )
        _set_design_metrics(result, measurement.extra_metrics.items())
        return result

    def run_design(self, design_name: str, workload: Workload,
                   capacity: SizeLike,
                   trace: Optional[Sequence[MemoryAccess]] = None,
                   associativity: Optional[int] = None,
                   label: Optional[str] = None) -> ExperimentResult:
        """Measure one design into an :class:`ExperimentResult`.

        The entry point of :func:`repro.sim.executor.run_trial`.  The
        one-window plan measures its window (:meth:`measure_windows`) and
        reports it (:meth:`window_result`); a sampled run takes the live
        stop walk (:meth:`compare`) and aggregates it.
        """
        label = design_name if label is None else label
        if self.sampling is None:
            measured = self.measure_windows(design_name, workload, capacity,
                                            [0], trace=trace,
                                            associativity=associativity)
            return self.window_result(label, measured[0], workload.name,
                                      capacity)
        run = self.compare(
            [design_name], workload, capacity, trace=trace,
            associativity=associativity, labels=[label],
        )
        with obs_current().span("assemble"):
            return run.results()[0]


__all__ = [
    "SampledDesignResult",
    "SampledRun",
    "TRACKED_METRICS",
    "WindowMeasurement",
    "WindowedSampler",
]
