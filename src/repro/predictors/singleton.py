"""Singleton table.

A significant fraction of page footprints contain only a single block
("singletons"); allocating a whole page frame for them wastes capacity, so
Unison Cache (like Footprint Cache) does not allocate a page when the
footprint predictor says "singleton" -- the block is fetched and forwarded.
Because un-allocated pages never get evicted, the usual eviction-time
correction path cannot fix a wrong singleton prediction; the small singleton
table fills that gap by remembering recent singleton pages and watching for a
second block being demanded (Section III-A.4).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.stats.counters import StatGroup


class SingletonTable:
    """LRU table of recently-seen singleton pages.

    Parameters
    ----------
    num_entries:
        Capacity of the table (the paper's table is 3 KB, on the order of a
        few hundred entries).
    blocks_per_page:
        Width of the observed-block bit vectors.

    The table is one insertion-ordered dict (least recently used first)
    mapping a page to ``(trigger_pc, trigger_offset, observed)``, where
    ``observed`` is the bit mask of the page's blocks demanded so far.
    """

    _STATE_ATTRS = ("_entries", "insertions", "promotions", "evictions")

    def __init__(self, num_entries: int = 256, blocks_per_page: int = 15) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if blocks_per_page <= 0:
            raise ValueError("blocks_per_page must be positive")
        self.num_entries = num_entries
        self.blocks_per_page = blocks_per_page
        self._entries: Dict[int, Tuple[int, int, int]] = {}
        # Statistics
        self.insertions = 0
        self.promotions = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def insert(self, page_number: int, trigger_pc: int, trigger_offset: int) -> None:
        """Record a page that was just served as a singleton."""
        if not 0 <= trigger_offset < self.blocks_per_page:
            raise ValueError("trigger_offset out of range")
        entries = self._entries
        if page_number in entries:
            del entries[page_number]
        elif len(entries) >= self.num_entries:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[page_number] = (trigger_pc, trigger_offset, 1 << trigger_offset)
        self.insertions += 1

    def lookup(self, page_number: int) -> Optional[Tuple[int, int, int]]:
        """Return the entry for a page (refreshing its recency), or None."""
        entry = self._entries.pop(page_number, None)
        if entry is not None:
            self._entries[page_number] = entry
        return entry

    def observe(self, page_number: int,
                block_offset: int) -> Optional[Tuple[int, int, int]]:
        """Note a demand to ``block_offset`` of a tracked singleton page.

        If the access shows the page is *not* actually a singleton, the entry
        is removed and ``(trigger_pc, trigger_offset, observed_mask)`` is
        returned so the caller can correct the footprint predictor and, if it
        chooses, allocate the page properly.  Returns None otherwise.
        """
        entry = self.lookup(page_number)
        if entry is None:
            return None
        if not 0 <= block_offset < self.blocks_per_page:
            raise ValueError("block_offset out of range")
        trigger_pc, trigger_offset, observed = entry
        observed |= 1 << block_offset
        if observed & (observed - 1):
            del self._entries[page_number]
            self.promotions += 1
            return trigger_pc, trigger_offset, observed
        self._entries[page_number] = (trigger_pc, trigger_offset, observed)
        return None

    def remove(self, page_number: int) -> bool:
        """Drop a page from the table; returns True if it was present."""
        return self._entries.pop(page_number, None) is not None

    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        """Number of pages currently tracked."""
        return len(self._entries)

    def stats(self) -> StatGroup:
        """Table statistics."""
        group = StatGroup("singleton_table")
        group.set("insertions", self.insertions)
        group.set("promotions", self.promotions)
        group.set("evictions", self.evictions)
        group.set("occupancy", self.occupancy)
        return group
