"""Experiment configuration, traces, and the measurement primitives.

The reproduction follows the paper's methodology at laptop scale:

1. build a DRAM cache design for a given *paper* capacity, structurally
   identical to the paper's configuration but with the number of sets scaled
   down by ``scale`` (the synthetic workload's working set is scaled by the
   same factor, so capacity-to-working-set ratios -- and therefore hit-ratio
   trends -- are preserved);
2. replay a warm-up portion of the workload (the paper uses two thirds of
   each trace for warm-up), reset statistics, and measure the remainder;
3. report a uniform :class:`ExperimentResult` containing the miss ratio,
   latencies, predictor accuracies, off-chip traffic, row activations, and
   the speedup over a no-DRAM-cache system computed by the analytic
   performance model.

This module holds the pieces: :class:`ExperimentConfig`, the trace builder
(:class:`ExperimentRunner`), :class:`ExperimentResult`, and the warm,
replay and read-out helpers.  Steps 2-3 run in one place, the windowed
sampler's window routine (:mod:`repro.sampling.runner`), where a full
replay is the plan with one window.  Trials and grids of them are declared
with :class:`repro.sim.spec.SweepSpec` and executed -- serially or across
worker processes, with trace/baseline reuse -- by
:mod:`repro.sim.executor`; the benchmarks and examples build on those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, Optional, Union

import numpy as np

from repro.obs.core import current as obs_current, emit_event
from repro.dramcache.base import DramCacheModel
from repro.engine import fallback_reason
from repro.engine.trace_array import records_to_array
from repro.trace.adapters import open_trace, resolve_format
from repro.trace.binfmt import check_access_types, open_trace_array
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile
from repro.workloads.tracefile import TraceFileWorkload

#: Anything an experiment can replay: a synthetic profile or a trace file.
Workload = Union[WorkloadProfile, TraceFileWorkload]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one experiment run."""

    #: Capacity scale-down factor (structure and working set shrink together).
    scale: int = 128
    #: Total accesses replayed (warm-up plus measurement).
    num_accesses: int = 240_000
    #: Fraction of the trace used for warm-up (the paper uses two thirds).
    warmup_fraction: float = 2.0 / 3.0
    #: Number of interleaved cores in the synthetic trace.
    num_cores: int = 16
    #: Workload generator seed.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")


@dataclass
class ExperimentResult:
    """Uniform record of one (design, workload, capacity) measurement."""

    design: str
    workload: str
    capacity: str
    scale: int
    accesses_measured: int

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

    footprint_accuracy: Optional[float] = None
    footprint_overfetch: Optional[float] = None
    way_prediction_accuracy: Optional[float] = None
    miss_prediction_accuracy: Optional[float] = None
    miss_predictor_overfetch: Optional[float] = None

    speedup_vs_no_cache: Optional[float] = None
    user_ipc: Optional[float] = None

    extra: Dict[str, float] = field(default_factory=dict)

    #: Optional-metric fields that designs populate through
    #: :meth:`repro.dramcache.base.DramCacheModel.extra_metrics`.
    METRIC_FIELDS = (
        "footprint_accuracy",
        "footprint_overfetch",
        "way_prediction_accuracy",
        "miss_prediction_accuracy",
        "miss_predictor_overfetch",
    )

    @property
    def miss_ratio_percent(self) -> float:
        """Miss ratio in percent, as plotted in Figures 5 and 6."""
        return 100.0 * self.miss_ratio


#: The stats-derived fields of a measurement (:func:`measured_fields`): the
#: ratios and latencies a sampled run averages across its windows ...
MEAN_FIELDS = ("miss_ratio", "hit_ratio", "average_hit_latency",
               "average_miss_latency", "average_access_latency",
               "offchip_blocks_per_access")
#: ... and the off-chip traffic and row-activation counts it sums.
SUM_FIELDS = ("offchip_demand_blocks", "offchip_prefetch_blocks",
              "offchip_writeback_blocks", "offchip_row_activations",
              "stacked_row_activations")


def warm_up(design: DramCacheModel, accesses, span) -> None:
    """Functionally warm ``design``, tagging ``span`` with the engine run."""
    note_engine(design, design.warm_up_array(accesses), len(accesses), span)


def replay(design: DramCacheModel, accesses, span) -> None:
    """Replay ``accesses`` on ``design`` (timed measurement), tagging
    ``span`` with the engine that ran."""
    design.run(accesses)
    engine = "scalar" if fallback_reason(design) else "batch"
    note_engine(design, engine, len(accesses), span)


def note_engine(design: DramCacheModel, engine: str, accesses: int,
                span) -> None:
    """Telemetry of one warm or replay call that ran on ``engine``.

    Tags ``span`` (``engine_<engine>`` calls, ``<engine>_accesses``) and
    counts the run's ``engine_<engine>_calls``/``_accesses`` metrics.  The
    first scalar call of a run labels the run with its ``scalar_fallback``
    reason and records a ``scalar_fallback`` ledger event naming it.
    Results never depend on any of this: it stays out of ResultSet extras.
    """
    span.add("engine_" + engine, 1)
    span.add(engine + "_accesses", accesses)
    obs_run = obs_current()
    if not obs_run.enabled:
        return
    obs_run.counter(f"engine_{engine}_calls")
    obs_run.counter(f"engine_{engine}_accesses", accesses)
    if engine == "scalar" and "scalar_fallback" not in obs_run.labels:
        reason = fallback_reason(design)
        obs_run.annotate(scalar_fallback=reason)
        emit_event("scalar_fallback", sweep=obs_run.labels.get("sweep"),
                   design=design.design_name, reason=reason)


def measured_fields(design: DramCacheModel,
                    activations_before: "tuple[int, int]",
                    ) -> Dict[str, Union[int, float]]:
    """Every :data:`MEAN_FIELDS`/:data:`SUM_FIELDS` value of a measurement.

    Row activations count from ``activations_before`` (off-chip, stacked),
    read when measurement began; every other field comes straight off the
    design's cache stats.  The window routine reads every measurement
    through this one helper.
    """
    fields: Dict[str, Union[int, float]] = {
        "offchip_row_activations": (design.memory.row_activations
                                    - activations_before[0]),
        "stacked_row_activations": (design.stacked.row_activations
                                    - activations_before[1]),
    }
    stats = design.cache_stats
    for name in MEAN_FIELDS + SUM_FIELDS:
        if name not in fields:
            fields[name] = getattr(stats, name)
    return fields


class ExperimentRunner:
    """Builds the workload trace of an experiment configuration.

    Designs are measured over it by :func:`repro.sim.executor.run_trial`.
    """

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()

    # ------------------------------------------------------------------ #
    # Trace construction
    # ------------------------------------------------------------------ #
    def scaled_profile(self, profile: WorkloadProfile) -> WorkloadProfile:
        """The profile with its working set scaled down by ``config.scale``."""
        return profile.scaled(
            max(profile.region_size * 64,
                profile.working_set_bytes // self.config.scale)
        )

    def iter_trace_chunks(self, profile: WorkloadProfile,
                          ) -> Iterator[np.ndarray]:
        """Generate the scaled workload trace as packed record chunks.

        This is the streaming core of :meth:`build_trace`: the trace store
        writes these :data:`~repro.engine.trace_array.RECORD_DTYPE` arrays
        to disk as they are produced, so a trace never has to be fully
        materialized just to be persisted.
        """
        workload = SyntheticWorkload(
            self.scaled_profile(profile),
            num_cores=self.config.num_cores,
            seed=self.config.seed,
        )
        return workload.iter_chunks(self.config.num_accesses)

    def build_trace(self, profile: Workload) -> np.ndarray:
        """Materialize the workload trace as one packed record array.

        Synthetic profiles are generated at the scaled working set; trace
        file workloads are read from disk, truncated to
        ``config.num_accesses`` -- a binary file as its packed records
        (:func:`~repro.trace.binfmt.open_trace_array`), any other format
        record by record.  Expand the array with
        :func:`~repro.engine.trace_array.array_to_records` where
        :class:`MemoryAccess` records are wanted.
        """
        if isinstance(profile, TraceFileWorkload):
            fmt = resolve_format(profile.format or None, profile.path).name
            if fmt == "binary":
                # A copy, not the file's memory map: a trace cached for
                # the process must not change, or fault, when the file is
                # rewritten.
                return check_access_types(np.array(open_trace_array(
                    profile.path, self.config.num_accesses)), profile.path)
            # islice never pulls the record after the limit, so nothing
            # past it is read (or parsed).
            return records_to_array(list(islice(
                open_trace(profile.path, fmt), self.config.num_accesses)))
        return np.concatenate(list(self.iter_trace_chunks(profile)))
