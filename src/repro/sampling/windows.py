"""Measurement-window placement for checkpointed sampled simulation.

A sampled run measures many short windows instead of one long suffix.  The
plan built here mirrors the SimFlex discipline the paper samples with:

* a **checkpoint prologue** -- the stretch of trace replayed once per design
  to build the warm :class:`~repro.dramcache.base.StateSnapshot` that every
  window restores from;
* **windows** placed over the measurement region (the part of the trace a
  full replay would measure, i.e. past ``warmup_fraction``), either
  systematically (evenly spaced) or at seeded-random positions;
* a deterministic shuffled **measurement order**, so adaptive termination
  that stops after a prefix of the plan has measured an unbiased spread of
  the region rather than its left edge.

A full replay is the degenerate plan (no ``SamplingConfig``): no prologue
and one window, the measurement region itself, warmed from the start of
the trace.

Everything is a pure function of ``(total_accesses, warmup_fraction,
SamplingConfig)`` -- no global state -- so serial and process-parallel sweep
executions sample identical windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

#: Window placement strategies.
PLACEMENT_SYSTEMATIC = "systematic"
PLACEMENT_RANDOM = "random"
PLACEMENTS = (PLACEMENT_SYSTEMATIC, PLACEMENT_RANDOM)


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of one sampled (windowed) measurement.

    The defaults target the acceptance bar of the paper's methodology --
    ~2% relative error at 95% confidence while simulating a small fraction
    of the trace -- on the reproduction's synthetic workloads.
    """

    #: Accesses measured per window.
    window_accesses: int = 2_000
    #: Accesses of per-window functional warming replayed from the
    #: checkpoint before measurement begins.
    warmup_accesses: int = 2_000
    #: Accesses of the one-time prologue that builds the warm checkpoint
    #: (ending where the measurement region starts).
    checkpoint_accesses: int = 50_000
    #: Windows measured before adaptive termination may trigger.
    min_windows: int = 5
    #: Window budget: sampling stops here even when not converged.
    max_windows: int = 30
    #: Target half-width of the 95% CI, relative to the mean.
    target_relative_error: float = 0.02
    #: Window placement: ``"systematic"`` or ``"random"``.
    placement: str = PLACEMENT_SYSTEMATIC
    #: Seed of random placement and of the measurement order shuffle.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_accesses <= 0:
            raise ValueError("window_accesses must be positive")
        if self.warmup_accesses < 0:
            raise ValueError("warmup_accesses must be non-negative")
        if self.checkpoint_accesses < 0:
            raise ValueError("checkpoint_accesses must be non-negative")
        if self.min_windows <= 0:
            raise ValueError("min_windows must be positive")
        if self.max_windows < self.min_windows:
            raise ValueError("max_windows must be >= min_windows")
        if not 0.0 < self.target_relative_error:
            raise ValueError("target_relative_error must be positive")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; known: {PLACEMENTS}"
            )


@dataclass(frozen=True)
class MeasurementWindow:
    """One planned window: a warm-up slice followed by a measured slice."""

    index: int
    #: First access of the per-window functional warming (>= the checkpoint
    #: position, so warming never re-replays checkpointed history).
    warmup_start: int
    #: First measured access.
    start: int
    #: One past the last measured access.
    stop: int

    @property
    def warmup_accesses(self) -> int:
        return self.start - self.warmup_start

    @property
    def measure_accesses(self) -> int:
        return self.stop - self.start

    @property
    def simulated_accesses(self) -> int:
        """Accesses a design replays for this window (warm-up + measure)."""
        return self.stop - self.warmup_start


@dataclass(frozen=True)
class WindowPlan:
    """The full schedule of one sampled measurement."""

    total_accesses: int
    #: Prologue replayed once per design to build the warm checkpoint.
    checkpoint_start: int
    checkpoint_stop: int
    #: Planned windows in positional order.
    windows: Tuple[MeasurementWindow, ...]
    #: Measurement order (indices into ``windows``): a deterministic
    #: shuffle, so an adaptively-terminated prefix spreads over the region.
    order: Tuple[int, ...]

    @property
    def checkpoint_accesses(self) -> int:
        return self.checkpoint_stop - self.checkpoint_start

    def simulated_accesses(self, windows_measured: int) -> int:
        """Accesses one design simulates for the first N ordered windows."""
        windows_measured = min(windows_measured, len(self.order))
        return self.checkpoint_accesses + sum(
            self.windows[i].simulated_accesses
            for i in self.order[:windows_measured]
        )

    def sampled_fraction(self, windows_measured: int) -> float:
        """Fraction of the trace one design simulates for N windows."""
        if self.total_accesses == 0:
            return 0.0
        return self.simulated_accesses(windows_measured) / self.total_accesses


def plan_windows(total_accesses: int, warmup_fraction: float,
                 config: Optional[SamplingConfig]) -> WindowPlan:
    """Place measurement windows over a trace of ``total_accesses``.

    The measurement region is ``[total * warmup_fraction, total)`` and the
    checkpoint prologue is the ``checkpoint_accesses`` immediately before
    it.  Window count is capped so windows can never overlap under
    systematic placement; degenerate traces (region smaller than one
    window) collapse to a single window covering the region.

    ``config=None`` plans a full replay: an empty prologue and one window,
    the whole region (empty for an empty trace), warmed from the first
    access.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    region_start = int(total_accesses * warmup_fraction)
    if config is None:
        return WindowPlan(
            total_accesses=total_accesses, checkpoint_start=0,
            checkpoint_stop=0,
            windows=(MeasurementWindow(index=0, warmup_start=0,
                                       start=region_start,
                                       stop=total_accesses),),
            order=(0,),
        )
    if total_accesses <= 0:
        raise ValueError("total_accesses must be positive")
    region_len = total_accesses - region_start
    window = min(config.window_accesses, region_len)
    count = max(1, min(config.max_windows, region_len // max(1, window)))

    checkpoint_stop = region_start
    checkpoint_start = max(0, region_start - config.checkpoint_accesses)

    span = region_len - window
    if config.placement == PLACEMENT_SYSTEMATIC:
        if count == 1:
            starts = [region_start]
        else:
            starts = [region_start + round(i * span / (count - 1))
                      for i in range(count)]
    else:
        rng = random.Random(config.seed)
        starts = sorted(rng.randint(region_start, region_start + span)
                        for _ in range(count))

    windows = tuple(
        MeasurementWindow(
            index=i,
            warmup_start=max(checkpoint_stop, start - config.warmup_accesses),
            start=start,
            stop=start + window,
        )
        for i, start in enumerate(starts)
    )
    order = list(range(count))
    # Independent stream from placement (which consumed config.seed).
    random.Random((config.seed << 1) ^ 0x5A17).shuffle(order)
    return WindowPlan(
        total_accesses=total_accesses,
        checkpoint_start=checkpoint_start,
        checkpoint_stop=checkpoint_stop,
        windows=windows,
        order=tuple(order),
    )


__all__ = [
    "MeasurementWindow",
    "PLACEMENTS",
    "PLACEMENT_RANDOM",
    "PLACEMENT_SYSTEMATIC",
    "SamplingConfig",
    "WindowPlan",
    "plan_windows",
]
