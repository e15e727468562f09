"""Memory access traces: records, codecs, format registry, and the trace store.

The reproduction is trace-driven: workload generators produce streams of
:class:`repro.trace.record.MemoryAccess` records (the L2-miss stream that the
DRAM cache observes), which the cache models consume.  In memory a trace is
one packed :data:`~repro.trace.binfmt.RECORD_DTYPE` array; it is windowed,
filtered and remapped by indexing that array.  Around it this package
provides:

* :mod:`repro.trace.io` -- the line-oriented text codec (inspectable with
  standard tools, gzip-transparent);
* :mod:`repro.trace.binfmt` -- the compact struct-packed binary codec with a
  self-describing header; :func:`~repro.trace.binfmt.open_trace_array` gives
  a binary file as one record array;
* :mod:`repro.trace.adapters` -- the format registry: ingestion of external
  formats (ChampSim-style, CSV, gem5), :func:`open_trace` (a record stream
  from a file in any readable format) and format conversion;
* :mod:`repro.trace.store` -- the on-disk :class:`TraceStore` that lets every
  distinct synthetic trace be generated once, ever, across processes and
  runs.
"""

from repro.trace.record import AccessType, MemoryAccess
from repro.trace.errors import TraceFormatError
from repro.trace.io import TraceReader, TraceWriter, read_trace, write_trace
from repro.trace.binfmt import (
    BinaryTraceInfo,
    BinaryTraceReader,
    BinaryTraceWriter,
    is_binary_trace,
    read_trace_bin,
    write_trace_bin,
)
from repro.trace.adapters import convert_trace, detect_format, open_trace
from repro.trace.store import TraceStore

__all__ = [
    "AccessType",
    "MemoryAccess",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "read_trace",
    "write_trace",
    "BinaryTraceInfo",
    "BinaryTraceReader",
    "BinaryTraceWriter",
    "is_binary_trace",
    "read_trace_bin",
    "write_trace_bin",
    "convert_trace",
    "detect_format",
    "open_trace",
    "TraceStore",
]
