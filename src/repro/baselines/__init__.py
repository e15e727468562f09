"""The no-cache reference system.

* :class:`repro.baselines.no_cache.NoDramCache` -- a system without any
  stacked-DRAM cache; every request goes off-chip.  The experiment runners
  construct it directly as the speedup baseline.

The baseline DRAM-cache designs the paper compares against (Alloy,
Footprint, Loh-Hill, Ideal) are design specs in
:mod:`repro.dramcache.designs`, like Unison Cache itself.
"""

from repro.baselines.no_cache import NoDramCache

__all__ = ["NoDramCache"]
