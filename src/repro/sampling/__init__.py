"""Checkpointed sampled simulation (SimFlex-style measurement windows).

The paper reports performance "with an average error of less than 2% at a
95% confidence level" using the SimFlex multiprocessor sampling methodology:
many short measurement windows spread over each trace, each preceded by
warm-up, aggregated with confidence intervals.  This package is that
methodology for the reproduction's trace-driven models:

* :mod:`repro.sampling.seekable` -- O(window) access into binary traces: an
  ``mmap``-backed reader for uncompressed ``.rptr`` files and a chunk-index
  reader for compressed ones, so a window deep in a multi-gigabyte trace
  opens without decoding the prefix.
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
from repro.sampling.seekable import (
    FileWindows,
    InMemoryWindows,
    MmapTraceReader,
    IndexedWindowReader,
    open_window_reader,
)
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
    "IndexedWindowReader",
    "MeasurementWindow",
    "MmapTraceReader",
    "SampledDesignResult",
    "SampledRun",
    "SamplingConfig",
    "WindowMeasurement",
    "WindowPlan",
    "WindowedSampler",
    "open_window_reader",
    "plan_windows",
]
