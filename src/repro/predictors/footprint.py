"""Footprint predictor.

The footprint of a page is the set of blocks touched between the page's
allocation and its eviction.  The predictor exploits the correlation between
the *code* that first touches a page and the page's eventual footprint: it is
indexed by the (PC, offset) pair of the trigger access, and each entry stores
the footprint bit vector last observed for that pair (Section III-A.1).

The history table is a finite, set-associative SRAM structure (144 KB in
Table II); capacity and conflict behaviour are modelled so that workloads with
many active code sites (e.g. Software Testing) see realistic accuracy loss.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.stats.counters import RatioStat, StatGroup
from repro.utils.hashing import mix64


class FootprintPredictor:
    """(PC, offset)-indexed footprint history table.

    Parameters
    ----------
    blocks_per_page:
        Width of the footprint bit vectors (15 for 960 B Unison pages, 31 for
        1984 B pages, 32 for 2 KB Footprint Cache pages).
    num_entries:
        Total history-table entries (the paper's 144 KB table is ~16 K
        entries).
    associativity:
        History-table associativity; entries are replaced LRU within a set.
    default_all_blocks:
        What to predict for an untrained (PC, offset) pair: the whole page
        (True, the Footprint Cache default, maximizing hit rate at the price
        of overfetch on cold code) or just the trigger block (False).

    Footprints are int bit masks: bit ``i`` is block offset ``i``.
    """

    _STATE_ATTRS = (
        "_keys", "_footprints", "_recency", "_clock", "lookups",
        "trained_hits", "updates", "accuracy", "fetched_blocks",
        "useful_blocks", "overfetched_blocks", "underpredicted_blocks",
        "trained_accuracy", "trained_fetched_blocks",
        "trained_overfetched_blocks",
    )

    def __init__(self, blocks_per_page: int, num_entries: int = 16 * 1024,
                 associativity: int = 4, default_all_blocks: bool = True) -> None:
        if blocks_per_page <= 0:
            raise ValueError("blocks_per_page must be positive")
        if num_entries <= 0 or associativity <= 0:
            raise ValueError("num_entries and associativity must be positive")
        if num_entries % associativity:
            raise ValueError("num_entries must be divisible by associativity")
        self.blocks_per_page = blocks_per_page
        self.num_entries = num_entries
        self.associativity = associativity
        self.default_all_blocks = default_all_blocks
        self.num_sets = num_entries // associativity
        # The table, flat: entry ``set * associativity + way`` holds one
        # (PC, offset) key, its footprint bit mask, and the clock of its last
        # touch (0 == empty, so empty entries are always replaced first).
        self._keys: List[Tuple[int, int]] = [()] * num_entries
        self._footprints: List[int] = [0] * num_entries
        self._recency: List[int] = [0] * num_entries
        self._clock = 0
        # Statistics
        self.lookups = 0
        self.trained_hits = 0
        self.updates = 0
        self.accuracy = RatioStat("footprint_accuracy")
        self.fetched_blocks = 0
        self.useful_blocks = 0
        self.overfetched_blocks = 0
        self.underpredicted_blocks = 0
        # Trained-prediction-only accounting (what Table V reports: in the
        # paper's 20-billion-instruction warm-up regime the fraction of
        # cold, untrained predictions is negligible, so accuracy/overfetch
        # are properties of the *trained* predictor).
        self.trained_accuracy = RatioStat("trained_footprint_accuracy")
        self.trained_fetched_blocks = 0
        self.trained_overfetched_blocks = 0

    # ------------------------------------------------------------------ #
    def _find(self, pc: int, offset: int) -> "tuple[int, int]":
        """(first entry of the key's set, the key's entry or -1)."""
        base = (mix64(pc * 1000003 + offset) % self.num_sets
                * self.associativity)
        keys = self._keys[base:base + self.associativity]
        key = (pc, offset)
        return base, base + keys.index(key) if key in keys else -1

    def _touch(self, entry: int) -> None:
        self._clock += 1
        self._recency[entry] = self._clock

    # ------------------------------------------------------------------ #
    def predict_bits(self, pc: int, offset: int) -> "tuple[int, bool]":
        """``(footprint mask, from_history)`` for a trigger at (pc, offset).

        The trigger block is demanded by definition, so it is always in the
        returned mask.
        """
        if not 0 <= offset < self.blocks_per_page:
            raise ValueError(
                f"offset {offset} out of range for {self.blocks_per_page}-block pages"
            )
        self.lookups += 1
        _, entry = self._find(pc, offset)
        if entry >= 0:
            self.trained_hits += 1
            self._touch(entry)
            return self._footprints[entry] | (1 << offset), True
        if self.default_all_blocks:
            return (1 << self.blocks_per_page) - 1, False
        return 1 << offset, False

    # ------------------------------------------------------------------ #
    def train(self, pc: int, offset: int, footprint: int) -> None:
        """Record the footprint mask an evicted page showed for its trigger."""
        if footprint >> self.blocks_per_page:
            raise ValueError(
                f"footprint {footprint:#x} wider than {self.blocks_per_page} blocks"
            )
        self.updates += 1
        base, entry = self._find(pc, offset)
        if entry < 0:
            # Replace the set's least-recently-touched entry.
            recency = self._recency[base:base + self.associativity]
            entry = base + recency.index(min(recency))
            self._keys[entry] = (pc, offset)
        self._footprints[entry] = footprint
        self._touch(entry)

    # ------------------------------------------------------------------ #
    def account(self, predicted: int, actual: int,
                from_history: bool = True) -> None:
        """Account a prediction's quality once the page's true footprint is known.

        Updates the Table V metrics: *accuracy* is the fraction of the actual
        footprint that was predicted (and therefore present in the cache when
        demanded); *overfetch* counts predicted-but-untouched blocks.  Cold
        (default, untrained) predictions are accounted separately from
        history-based ones; the headline metrics report the trained
        predictor's behaviour, matching the paper's long-warm-up methodology.
        """
        correct = (predicted & actual).bit_count()
        actual_count = actual.bit_count()
        predicted_count = predicted.bit_count()
        self.accuracy.add(correct, max(1, actual_count))
        self.fetched_blocks += predicted_count
        self.useful_blocks += correct
        self.overfetched_blocks += predicted_count - correct
        self.underpredicted_blocks += actual_count - correct
        if from_history:
            self.trained_accuracy.add(correct, max(1, actual_count))
            self.trained_fetched_blocks += predicted_count
            self.trained_overfetched_blocks += predicted_count - correct

    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        """Zero the accuracy/traffic counters without forgetting learned footprints."""
        self.lookups = 0
        self.trained_hits = 0
        self.updates = 0
        self.accuracy.reset()
        self.fetched_blocks = 0
        self.useful_blocks = 0
        self.overfetched_blocks = 0
        self.underpredicted_blocks = 0
        self.trained_accuracy.reset()
        self.trained_fetched_blocks = 0
        self.trained_overfetched_blocks = 0

    @property
    def overfetch_ratio(self) -> float:
        """Overfetch of trained predictions (falls back to all predictions)."""
        if self.trained_fetched_blocks > 0:
            return self.trained_overfetched_blocks / self.trained_fetched_blocks
        if self.fetched_blocks == 0:
            return 0.0
        return self.overfetched_blocks / self.fetched_blocks

    @property
    def overall_overfetch_ratio(self) -> float:
        """Overfetch over every prediction, cold defaults included."""
        if self.fetched_blocks == 0:
            return 0.0
        return self.overfetched_blocks / self.fetched_blocks

    @property
    def accuracy_ratio(self) -> float:
        """Accuracy of trained predictions (falls back to all predictions)."""
        if self.trained_accuracy.denominator > 0:
            return self.trained_accuracy.value
        return self.accuracy.value

    def stats(self) -> StatGroup:
        """Predictor statistics (Table V inputs)."""
        group = StatGroup("footprint_predictor")
        group.set("lookups", self.lookups)
        group.set("trained_hits", self.trained_hits)
        group.set("updates", self.updates)
        group.set("accuracy", self.accuracy_ratio)
        group.set("overfetch_ratio", self.overfetch_ratio)
        group.set("overall_accuracy", self.accuracy.value)
        group.set("overall_overfetch_ratio", self.overall_overfetch_ratio)
        group.set("trained_outcomes", self.trained_accuracy.denominator)
        group.set("fetched_blocks", self.fetched_blocks)
        group.set("useful_blocks", self.useful_blocks)
        group.set("overfetched_blocks", self.overfetched_blocks)
        group.set("underpredicted_blocks", self.underpredicted_blocks)
        return group
