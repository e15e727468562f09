"""Statistics collection and reporting.

Every simulated component (caches, predictors, DRAM channels, the performance
model) exposes its behaviour through the counters in this subpackage, which
the experiment harness then turns into the ratios and confidence intervals
reported in the paper's tables and figures.
"""

from repro.stats.counters import Counter, RatioStat, StatGroup
from repro.stats.confidence import ConfidenceInterval, mean_confidence_interval
from repro.stats.sampling import (
    AdaptiveStopper,
    WindowSeries,
    matched_pair_deltas,
)

__all__ = [
    "AdaptiveStopper",
    "Counter",
    "RatioStat",
    "StatGroup",
    "ConfidenceInterval",
    "WindowSeries",
    "matched_pair_deltas",
    "mean_confidence_interval",
]
