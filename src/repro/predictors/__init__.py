"""Predictors used by the DRAM cache designs.

* :class:`repro.predictors.footprint.FootprintPredictor` -- the (PC, offset)
  indexed spatial-correlation predictor shared by Footprint Cache and Unison
  Cache (Section III-A.1-3).
* :class:`repro.predictors.singleton.SingletonTable` -- tracks pages predicted
  to be singletons so mispredictions can still be corrected (Section III-A.4).
* :class:`repro.predictors.way.WayPredictor` -- the 2-bit, XOR-hash-indexed
  page-level way predictor of Unison Cache (Section III-A.6).
* :class:`repro.predictors.miss.MissPredictor` -- the per-core, PC-indexed
  hit/miss predictor used by Alloy Cache (MAP-I style).
"""

from repro.predictors.footprint import FootprintPredictor
from repro.predictors.miss import MissPredictor
from repro.predictors.singleton import SingletonTable
from repro.predictors.way import WayPredictor

__all__ = [
    "FootprintPredictor",
    "MissPredictor",
    "SingletonTable",
    "WayPredictor",
]
