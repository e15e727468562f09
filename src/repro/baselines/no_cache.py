"""A system without a die-stacked DRAM cache.

Useful as a lower-bound reference and for normalizing speedups: every L2 miss
goes straight to off-chip memory, and off-chip traffic equals one block per
access (the baseline the paper's bandwidth discussion compares against).

The class is a named composition on the
:class:`repro.dramcache.composed.ComposedDramCache` engine: the no-cache tag
organization, which forwards reads and writes straight off chip.  The
experiment runners construct it directly as the speedup baseline; the
``no_cache`` design name is the equivalent spec in
:mod:`repro.dramcache.designs`.
"""

from __future__ import annotations

from typing import Optional

from repro.dramcache.components import NoCacheTags
from repro.dramcache.composed import ComposedDramCache
from repro.mem.main_memory import MainMemory
from repro.mem.stacked import StackedDram


class NoDramCache(ComposedDramCache):
    """Pass-through design: every request misses to off-chip memory."""

    design_name = "no_cache"

    def __init__(self, memory: Optional[MainMemory] = None,
                 interarrival_cycles: int = 6) -> None:
        super().__init__(
            tags=NoCacheTags(),
            stacked=StackedDram(),
            memory=memory,
            interarrival_cycles=interarrival_cycles,
        )
