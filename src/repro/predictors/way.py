"""Page-level way predictor.

Unison Cache is set-associative but must not serialize tag and data reads nor
fetch all ways in parallel, so the DRAM controller predicts the way before
issuing the data-block read.  The predictor is "a 2-bit array directly indexed
by the 12-bit XOR hash of the page address (16-bit XOR for caches above 4GB)"
(Section III-A.6).  Because it operates at page granularity and pages enjoy
abundant spatial locality, its accuracy is ~95%, much higher than block-level
way predictors.
"""

from __future__ import annotations

from typing import List

from repro.stats.counters import RatioStat, StatGroup
from repro.utils.hashing import fold_xor


class WayPredictor:
    """XOR-hash-indexed table of predicted ways.

    Parameters
    ----------
    index_bits:
        Width of the XOR-folded index (12 for caches up to 4 GB, 16 above).
    associativity:
        Number of ways being predicted; each entry stores ``ceil(log2(ways))``
        bits (2 bits for the paper's 4-way organization).
    """

    _STATE_ATTRS = ("_table", "accuracy")

    def __init__(self, index_bits: int = 12, associativity: int = 4) -> None:
        if index_bits <= 0:
            raise ValueError("index_bits must be positive")
        if associativity <= 1:
            raise ValueError("way prediction needs associativity > 1")
        self.index_bits = index_bits
        self.associativity = associativity
        self._table: List[int] = [0] * (1 << index_bits)
        self.accuracy = RatioStat("way_prediction_accuracy")

    # ------------------------------------------------------------------ #
    @classmethod
    def for_capacity(cls, capacity_bytes: int, associativity: int = 4) -> "WayPredictor":
        """Build a predictor sized per the paper's rule (12 bits, 16 above 4 GB)."""
        index_bits = 16 if capacity_bytes > 4 * 1024 ** 3 else 12
        return cls(index_bits=index_bits, associativity=associativity)

    @property
    def num_entries(self) -> int:
        """Number of table entries."""
        return len(self._table)

    @property
    def storage_bytes(self) -> int:
        """SRAM storage of the table (2-bit entries for 4-way)."""
        bits_per_entry = max(1, (self.associativity - 1).bit_length())
        return (self.num_entries * bits_per_entry) // 8

    # ------------------------------------------------------------------ #
    def _index(self, page_address: int) -> int:
        return fold_xor(page_address, self.index_bits)

    def predict(self, page_address: int) -> int:
        """Predicted way for the set that ``page_address`` maps to."""
        return self._table[self._index(page_address)]

    def update(self, page_address: int, actual_way: int) -> None:
        """Train the predictor with the way the page was actually found in."""
        if not 0 <= actual_way < self.associativity:
            raise ValueError(
                f"actual_way {actual_way} out of range for "
                f"{self.associativity}-way prediction"
            )
        self._table[self._index(page_address)] = actual_way

    def record(self, page_address: int, actual_way: int) -> bool:
        """Predict, score against the actual way, train, and return correctness."""
        predicted = self.predict(page_address)
        correct = predicted == actual_way
        self.accuracy.record(correct)
        self.update(page_address, actual_way)
        return correct

    def reset_stats(self) -> None:
        """Zero the accuracy counters without forgetting the prediction table."""
        self.accuracy.reset()

    # ------------------------------------------------------------------ #
    def stats(self) -> StatGroup:
        """Accuracy and sizing statistics."""
        group = StatGroup("way_predictor")
        group.set("accuracy", self.accuracy.value)
        group.set("predictions", self.accuracy.denominator)
        group.set("entries", self.num_entries)
        group.set("storage_bytes", self.storage_bytes)
        return group
