"""Unison Cache's in-DRAM row organization.

* :mod:`repro.core.row_layout` -- how pages, embedded tags, bit vectors,
  (PC, offset) pairs and LRU state are packed into an 8 KB DRAM row
  (Figures 2 and 3).

The cache itself is the ``unison`` design spec in
:mod:`repro.dramcache.designs`: in-DRAM page tags
(:class:`~repro.dramcache.components.DramPageTags`, which owns this
layout), way prediction and footprint fetching on the composed engine.
"""

from repro.core.row_layout import UnisonRowLayout

__all__ = ["UnisonRowLayout"]
