"""Replacement policies for set-associative caches.

Policies operate on way indices within a single set and are instantiated once
per set.  The interface is deliberately small: notify on access and on fill,
and nominate a victim.
"""

from __future__ import annotations

import abc
import random
from typing import List


class ReplacementPolicy(abc.ABC):
    """Replacement state for one cache set."""

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.associativity = associativity

    @abc.abstractmethod
    def on_access(self, way: int) -> None:
        """Record a hit on ``way``."""

    @abc.abstractmethod
    def on_fill(self, way: int) -> None:
        """Record a fill into ``way``."""

    @abc.abstractmethod
    def victim(self, valid_ways: List[bool]) -> int:
        """Choose a way to evict.

        ``valid_ways[w]`` is True if way ``w`` currently holds valid data; an
        invalid way is always preferred over evicting valid data.
        """

    def _first_invalid(self, valid_ways: List[bool]) -> int:
        for way, valid in enumerate(valid_ways):
            if not valid:
                return way
        return -1


class LruPolicy(ReplacementPolicy):
    """Least-recently-used replacement (the paper's page replacement policy)."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        # recency[way] = logical time of last touch; larger is more recent.
        self._recency = [0] * associativity
        self._clock = 0

    def on_access(self, way: int) -> None:
        self._clock += 1
        self._recency[way] = self._clock

    def on_fill(self, way: int) -> None:
        self.on_access(way)

    def victim(self, valid_ways: List[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid >= 0:
            return invalid
        oldest_way = 0
        oldest_time = self._recency[0]
        for way in range(1, self.associativity):
            if self._recency[way] < oldest_time:
                oldest_time = self._recency[way]
                oldest_way = way
        return oldest_way

    def recency_order(self) -> List[int]:
        """Ways ordered from most- to least-recently used (for inspection)."""
        return sorted(range(self.associativity),
                      key=lambda w: self._recency[w], reverse=True)


class NruPolicy(ReplacementPolicy):
    """Not-recently-used: one reference bit per way, cleared when all are set."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._referenced = [False] * associativity

    def _maybe_reset(self) -> None:
        if all(self._referenced):
            self._referenced = [False] * self.associativity

    def on_access(self, way: int) -> None:
        self._referenced[way] = True
        self._maybe_reset()

    def on_fill(self, way: int) -> None:
        self.on_access(way)

    def victim(self, valid_ways: List[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid >= 0:
            return invalid
        for way in range(self.associativity):
            if not self._referenced[way]:
                return way
        return 0


class RandomPolicy(ReplacementPolicy):
    """Random replacement with a deterministic per-set generator."""

    def __init__(self, associativity: int, seed: int = 0) -> None:
        super().__init__(associativity)
        self._rng = random.Random(seed)

    def on_access(self, way: int) -> None:  # random keeps no access state
        return None

    def on_fill(self, way: int) -> None:
        return None

    def victim(self, valid_ways: List[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid >= 0:
            return invalid
        return self._rng.randrange(self.associativity)


_POLICIES = {
    "lru": LruPolicy,
    "nru": NruPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, associativity: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``, ``nru``, ``random``)."""
    key = name.lower()
    if key not in _POLICIES:
        raise ValueError(f"unknown replacement policy {name!r}; options: {sorted(_POLICIES)}")
    return _POLICIES[key](associativity)
