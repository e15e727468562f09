"""The batch engine: fused kernels for replay and functional warming.

Public surface:

* :func:`repro.engine.replay_design` -- service a request stream on a
  design via the fused kernels (bit-identical to per-request
  ``access`` calls, statistics included), with automatic scalar fallback;
  returns which engine ran.  ``DramCacheModel.run`` calls it.
* :func:`repro.engine.warm_design` -- a replay followed by
  ``reset_stats()`` (``DramCacheModel.warm_up_array`` calls it).
* :func:`repro.engine.batch_enabled` / :func:`set_batch_enabled` -- the
  ``REPRO_BATCH`` / ``--batch-warming`` controls, governing warming and
  replay alike.
* :func:`repro.engine.select_kernel` -- kernel coverage probe (None means
  the composition runs on the scalar engine), and
  :func:`repro.engine.fallback_reason` -- why a design would.
* :mod:`repro.engine.trace_array` -- the packed record array every sweep
  replays, and its conversions (``decode_array``, ``records_to_array``,
  ``array_to_records``).
"""

from repro.engine.batch import (
    batch_enabled,
    fallback_reason,
    replay_design,
    set_batch_enabled,
    warm_design,
)
from repro.engine.kernels import select_kernel
from repro.engine.trace_array import (
    RECORD_DTYPE,
    array_to_records,
    decode_array,
    is_access_array,
    records_to_array,
)

__all__ = [
    "RECORD_DTYPE",
    "array_to_records",
    "batch_enabled",
    "decode_array",
    "fallback_reason",
    "is_access_array",
    "records_to_array",
    "replay_design",
    "select_kernel",
    "set_batch_enabled",
    "warm_design",
]
