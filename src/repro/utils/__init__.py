"""Low-level utilities shared across the Unison Cache reproduction.

This subpackage contains no simulation logic of its own.  It provides the
small, heavily-reused building blocks that the cache models, predictors and
DRAM timing model are written in terms of:

* :mod:`repro.utils.units` -- parsing and formatting of capacity strings such
  as ``"1GB"`` or ``"960B"``.
* :mod:`repro.utils.hashing` -- XOR-folding hash used by the way predictor and
  the Alloy Cache miss predictor.
* :mod:`repro.utils.residue` -- modulo-by-(2^n - 1) residue arithmetic used by
  Unison Cache's non-power-of-two set-index computation.
* :mod:`repro.utils.sqlstore` -- how the job store, result archive and run
  ledger open, version-check and transact on their SQLite files.

Page footprints and valid/dirty block sets are plain ``int`` bit masks.
"""

from repro.utils.hashing import fold_xor, mix64
from repro.utils.residue import mod_mersenne, ResidueMapper
from repro.utils.units import format_size, parse_size

__all__ = [
    "fold_xor",
    "mix64",
    "mod_mersenne",
    "ResidueMapper",
    "format_size",
    "parse_size",
]
