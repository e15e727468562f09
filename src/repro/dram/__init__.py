"""DRAM device and controller timing model.

A compact, DRAMSim2-inspired timing model of DDR-style devices: per-bank row
buffer state honouring the Table III timing constraints (tRCD, tCAS, tRP,
tRAS, tRC, tWR, tWTR, tRTP, tRRD, tFAW), a shared data bus per channel, and
an open-page controller with channel/bank interleaving.  The whole model is
:class:`DramController`: its bank and channel state are flat lists, and one
set of closures over them (:class:`DramOps`) serves both the per-access
per-access scalar path and the batch kernels.

It is used both for the off-chip DDR3-1600 channel and for the four-channel
die-stacked DRAM; the DRAM cache models issue logical operations (read a tag
burst, read a block, fill a footprint) and receive latencies in CPU cycles.
"""

from repro.dram.timing import DramTimings
from repro.dram.controller import DramController, DramOps

__all__ = [
    "DramTimings",
    "DramController",
    "DramOps",
]
