"""Checkpointed sampled simulation (SimFlex-style measurement windows).

The paper reports performance "with an average error of less than 2% at a
95% confidence level" using the SimFlex multiprocessor sampling methodology:
many short measurement windows spread over each trace, each preceded by
warm-up, aggregated with confidence intervals.  This package is that
methodology for the reproduction's trace-driven models:

* :mod:`repro.sampling.seekable` -- the window providers the sampler reads
  windows from: an in-memory trace, or a binary trace file opened as one
  record array (memory-mapped when raw, so a window deep in a
  multi-gigabyte trace opens without reading the prefix).
* :mod:`repro.sampling.windows` -- window placement (systematic or
  seeded-random) and the :class:`~repro.sampling.windows.SamplingConfig`
  describing a sampled measurement.
* :mod:`repro.sampling.runner` -- the
  :class:`~repro.sampling.runner.WindowedSampler`: builds one warm
  checkpoint per design (via the
  :class:`~repro.dramcache.base.StateSnapshot` protocol), replays a short
  functional-warming prologue before each window, and keeps measuring
  windows until the confidence interval converges or the window budget is
  exhausted.
* :mod:`repro.sampling.checkpoints` -- the on-disk
  :class:`~repro.sampling.checkpoints.CheckpointStore`: warm checkpoints,
  stored as flat buffers next to the trace store so the prologue replay
  survives across processes and sessions, invalidated whenever the
  design's component spec (its registry token) changes.

Sampled runs plug into the declarative experiment API: set ``sampling=`` on
a :class:`~repro.sim.spec.SweepSpec` (or per-trial override) and the sweep
executor runs every cell sampled; ``repro sample`` is the CLI entry point.
"""

from repro.sampling.checkpoints import CheckpointStore
from repro.sampling.seekable import FileWindows, InMemoryWindows
from repro.sampling.windows import (
    MeasurementWindow,
    SamplingConfig,
    WindowPlan,
    plan_windows,
)
from repro.sampling.runner import (
    SampledDesignResult,
    SampledRun,
    WindowMeasurement,
    WindowedSampler,
)

__all__ = [
    "CheckpointStore",
    "FileWindows",
    "InMemoryWindows",
    "MeasurementWindow",
    "SampledDesignResult",
    "SampledRun",
    "SamplingConfig",
    "WindowMeasurement",
    "WindowPlan",
    "WindowedSampler",
    "plan_windows",
]
