"""Hit/miss predictor for Alloy Cache.

Alloy Cache avoids paying the DRAM-cache tag lookup on misses by predicting,
per request, whether the access will hit; predicted misses go straight to
off-chip memory in parallel.  The paper's Alloy Cache uses the MAP-I
(memory-access-pattern, instruction-based) predictor: small per-core tables of
saturating counters indexed by a hash of the requesting PC (96 B per core,
1.5 KB total in Table II).
"""

from __future__ import annotations

from typing import List

from repro.stats.counters import RatioStat, StatGroup
from repro.utils.hashing import fold_xor


class MissPredictor:
    """Per-core, PC-indexed saturating-counter miss predictor (MAP-I style).

    Parameters
    ----------
    num_cores:
        Number of per-core predictor instances.
    entries_per_core:
        Counters per core.
    counter_bits:
        Width of each saturating counter (3 bits in the original design).
    """

    _STATE_ATTRS = ("_tables", "accuracy", "miss_identification",
                    "false_misses", "false_hits", "predictions")

    def __init__(self, num_cores: int = 16, entries_per_core: int = 256,
                 counter_bits: int = 3) -> None:
        if num_cores <= 0 or entries_per_core <= 0:
            raise ValueError("num_cores and entries_per_core must be positive")
        if counter_bits <= 0:
            raise ValueError("counter_bits must be positive")
        self.num_cores = num_cores
        self.entries_per_core = entries_per_core
        self.counter_bits = counter_bits
        self._max_value = (1 << counter_bits) - 1
        self._threshold = 1 << (counter_bits - 1)
        # Counters start biased toward predicting hits (0 == strongly hit).
        self._tables: List[List[int]] = [
            [0] * entries_per_core for _ in range(num_cores)
        ]
        self._index_bits = max(1, (entries_per_core - 1).bit_length())
        # Statistics
        self.accuracy = RatioStat("miss_prediction_accuracy")
        self.miss_identification = RatioStat("miss_identification")
        self.false_misses = 0      # hits predicted as misses -> extra off-chip traffic
        self.false_hits = 0        # misses predicted as hits -> extra latency
        self.predictions = 0

    # ------------------------------------------------------------------ #
    def _index(self, pc: int) -> int:
        return fold_xor(pc >> 2, self._index_bits) % self.entries_per_core

    def predict_miss(self, core_id: int, pc: int) -> bool:
        """True if the access is predicted to miss in the DRAM cache."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core_id {core_id} out of range")
        counter = self._tables[core_id][self._index(pc)]
        self.predictions += 1
        return counter >= self._threshold

    def update(self, core_id: int, pc: int, was_miss: bool) -> None:
        """Train with the actual outcome of the access."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core_id {core_id} out of range")
        index = self._index(pc)
        table = self._tables[core_id]
        if was_miss:
            table[index] = min(self._max_value, table[index] + 1)
        else:
            table[index] = max(0, table[index] - 1)

    def record(self, core_id: int, pc: int, was_miss: bool) -> bool:
        """Predict, score, and train in one step; returns the prediction."""
        predicted_miss = self.predict_miss(core_id, pc)
        correct = predicted_miss == was_miss
        self.accuracy.record(correct)
        if was_miss:
            # Table V's "MP Accuracy" is the fraction of misses correctly
            # identified as misses.
            self.miss_identification.record(predicted_miss)
        if predicted_miss and not was_miss:
            self.false_misses += 1
        if not predicted_miss and was_miss:
            self.false_hits += 1
        self.update(core_id, pc, was_miss)
        return predicted_miss

    def reset_stats(self) -> None:
        """Zero the accuracy counters without forgetting the counter tables."""
        self.accuracy.reset()
        self.miss_identification.reset()
        self.false_misses = 0
        self.false_hits = 0
        self.predictions = 0

    # ------------------------------------------------------------------ #
    @property
    def storage_bytes_per_core(self) -> int:
        """SRAM bytes per core (96 B for the default parameters)."""
        return (self.entries_per_core * self.counter_bits) // 8

    @property
    def storage_bytes_total(self) -> int:
        """Total predictor storage across all cores."""
        return self.storage_bytes_per_core * self.num_cores

    def stats(self) -> StatGroup:
        """Accuracy and traffic-impact statistics."""
        group = StatGroup("miss_predictor")
        group.set("accuracy", self.accuracy.value)
        group.set("miss_identification", self.miss_identification.value)
        group.set("false_misses", self.false_misses)
        group.set("false_hits", self.false_hits)
        group.set("predictions", self.predictions)
        group.set("storage_bytes_total", self.storage_bytes_total)
        return group
