"""Memory access traces: records, codecs, pipelines, and the trace store.

The reproduction is trace-driven: workload generators produce streams of
:class:`repro.trace.record.MemoryAccess` records (the L2-miss stream that the
DRAM cache observes), which the cache models consume.  Around that record
type this package provides:

* :mod:`repro.trace.io` -- the line-oriented text codec (inspectable with
  standard tools, gzip-transparent);
* :mod:`repro.trace.binfmt` -- the compact struct-packed binary codec with a
  self-describing header and chunked streaming in both directions;
* :mod:`repro.trace.adapters` -- ingestion of external formats
  (ChampSim-style, CSV) and format conversion;
* :mod:`repro.trace.pipeline` -- :class:`TraceSource`, a re-iterable stream
  with composable lazy transforms (window, core select, address remap,
  downsample, interleave);
* :mod:`repro.trace.store` -- the on-disk :class:`TraceStore` that lets every
  distinct synthetic trace be generated once, ever, across processes and
  runs;
* :mod:`repro.trace.filters` -- plain generator transforms that also plug
  into pipelines via :meth:`TraceSource.transform`.
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
from repro.trace.filters import interleave_traces, limit_trace, split_warmup
from repro.trace.pipeline import (
    FileSource,
    IterableSource,
    SyntheticSource,
    TraceSource,
    as_source,
)
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
    "interleave_traces",
    "limit_trace",
    "split_warmup",
    "FileSource",
    "IterableSource",
    "SyntheticSource",
    "TraceSource",
    "as_source",
    "TraceStore",
]
