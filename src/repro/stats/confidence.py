"""Confidence intervals for sampled measurements.

The paper follows the SimFlex sampling methodology and reports performance
"with an average error of less than 2% at a 95% confidence level".  The
reproduction's windowed sampler (:mod:`repro.sampling`) aggregates
per-window measurements with the helpers here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Two-sided critical values of the Student t distribution for 95% confidence,
# indexed by degrees of freedom.  Above the table we use the normal
# approximation (1.96), which is accurate to within ~1% for dof >= 30.
_T_TABLE_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z_95 = 1.96


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean together with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float = 0.95

    @property
    def lower(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    @property
    def relative_error(self) -> float:
        """Half-width as a fraction of the mean.

        A zero mean with a non-zero half-width yields ``inf`` -- the
        relative-error criterion is simply undecidable there, and callers
        (the adaptive sampler) must fall back to an absolute tolerance.
        Returning 0.0 instead (as this once did) made a completely
        unconverged measurement of a near-zero quantity look perfectly
        converged.
        """
        if self.mean == 0:
            return 0.0 if self.half_width == 0 else math.inf
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        """True if ``value`` lies within the interval."""
        return self.lower <= value <= self.upper


def _critical_value_95(dof: int) -> float:
    if dof <= 0:
        raise ValueError("need at least two samples for a confidence interval")
    return _T_TABLE_95.get(dof, _Z_95)


def mean_confidence_interval(samples: Sequence[float]) -> ConfidenceInterval:
    """95% confidence interval for the mean of ``samples``.

    Uses the Student t distribution for small sample counts and the normal
    approximation beyond 30 degrees of freedom.  A single sample yields a
    zero-width interval (there is nothing to estimate variance from, and the
    sampling driver treats that case as "measurement not yet converged").
    """
    if len(samples) == 0:
        raise ValueError("cannot compute a confidence interval of no samples")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std_error = math.sqrt(variance / n)
    half_width = _critical_value_95(n - 1) * std_error
    return ConfidenceInterval(mean=mean, half_width=half_width)
