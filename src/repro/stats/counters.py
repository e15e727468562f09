"""Simple named counters and ratio statistics.

The simulator favours explicit counter objects over ad-hoc integer attributes
so that every component can be dumped into a uniform report (``StatGroup``)
and so the benchmark harness can extract any statistic by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple, Union


class Counter:
    """A monotonically-increasing named event counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (which must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"cannot increment counter {self.name!r} by {amount}")
        self._value += amount

    def reset(self) -> None:
        """Reset the counter to zero (used between warm-up and measurement)."""
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


@dataclass
class RatioStat:
    """A statistic expressed as ``numerator / denominator``.

    Used for hit/miss ratios, predictor accuracies, and overfetch ratios.
    ``value`` returns 0.0 when the denominator is zero, which is the
    convention the reporting code relies on for unexercised components.
    """

    name: str
    numerator: int = 0
    denominator: int = 0

    _STATE_ATTRS = ("numerator", "denominator")

    def record(self, success: bool) -> None:
        """Record one trial; ``success`` increments the numerator."""
        self.denominator += 1
        if success:
            self.numerator += 1

    def add(self, numerator: int, denominator: int) -> None:
        """Accumulate partial counts."""
        if numerator < 0 or denominator < 0:
            raise ValueError("counts must be non-negative")
        self.numerator += numerator
        self.denominator += denominator

    @property
    def value(self) -> float:
        """The ratio, or 0.0 if nothing has been recorded."""
        if self.denominator == 0:
            return 0.0
        return self.numerator / self.denominator

    @property
    def percent(self) -> float:
        """The ratio as a percentage."""
        return 100.0 * self.value

    def reset(self) -> None:
        """Zero both counts."""
        self.numerator = 0
        self.denominator = 0


StatValue = Union[int, float]


@dataclass
class StatGroup:
    """A flat, named collection of statistics for one component.

    Components build a ``StatGroup`` in their ``stats()`` accessor; groups can
    be nested by prefixing (``merge_child``), giving dotted names such as
    ``"dram_cache.hits"`` in the final report.
    """

    name: str
    values: Dict[str, StatValue] = field(default_factory=dict)

    def set(self, key: str, value: StatValue) -> None:
        """Set a single statistic."""
        self.values[key] = value

    def get(self, key: str) -> StatValue:
        """Read a single statistic; raises ``KeyError`` if absent."""
        return self.values[key]

    def merge_child(self, child: "StatGroup") -> None:
        """Fold a child group into this one using dotted-name prefixes."""
        for key, value in child.values.items():
            self.values[f"{child.name}.{key}"] = value

    def items(self) -> Iterator[Tuple[str, StatValue]]:
        """Iterate over (name, value) pairs in insertion order."""
        return iter(self.values.items())

    def as_dict(self) -> Dict[str, StatValue]:
        """Return a copy of the statistics as a plain dict."""
        return dict(self.values)

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def __len__(self) -> int:
        return len(self.values)
