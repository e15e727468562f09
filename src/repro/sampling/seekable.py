"""Seekable access into binary traces: open a window without the prefix.

Replaying a measurement window that starts a hundred million records into a
trace must not cost a hundred million record constructions.  Two readers
provide O(window) access:

* :class:`MmapTraceReader` -- for **uncompressed** ``.rptr`` files.  Records
  are fixed-size, so a window is a pure arithmetic slice of the memory map;
  opening a window neither reads nor decodes the prefix, and the page cache
  shares the mapping across readers and processes.
* :class:`IndexedWindowReader` -- for **compressed** payloads.  Each
  streaming chunk is an independent gzip member, and the
  :class:`~repro.trace.binfmt.ChunkIndex` sidecar maps record indices to
  member offsets, so only the members covering the window are
  decompressed.  Legacy single-member files (written before the sidecar
  existed) degrade gracefully to one seek point at the payload start.

:func:`open_window_reader` picks the right reader from the header.  The
window *providers* at the bottom (:class:`InMemoryWindows`,
:class:`FileWindows`) are the uniform source interface the
:class:`~repro.sampling.runner.WindowedSampler` consumes: ``total`` accesses
plus ``read_array(start, stop)``, a window as a packed record array (and
``read(start, stop)``, which :class:`FileWindows` answers with records).
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.trace.binfmt import (
    CODEC_NONE,
    HEADER,
    RECORD,
    BinaryTraceReader,
    ChunkIndex,
    _decode_records,
    decompress_members,
    is_binary_trace,
    read_header,
)
from repro.trace.errors import TraceFormatError
from repro.trace.record import MemoryAccess

PathLike = Union[str, Path]


def _clip_window(start: int, stop: int, count: int) -> "tuple[int, int]":
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop")
    return min(start, count), min(stop, count)


class MmapTraceReader(BinaryTraceReader):
    """``mmap``-backed reader for uncompressed binary traces.

    A :class:`~repro.trace.binfmt.BinaryTraceReader` variant whose
    :meth:`read_window` is an arithmetic slice of the mapping -- opening a
    window is O(1) in the window's offset, and decoding is O(window).  The
    mapping is opened lazily and shared by every window read; use as a
    context manager (or call :meth:`close`) to release it deterministically.
    """

    def __init__(self, path: PathLike) -> None:
        super().__init__(path)
        info = read_header(path)
        if info.codec != CODEC_NONE:
            raise TraceFormatError(
                f"MmapTraceReader requires an uncompressed trace "
                f"(payload codec is {info.codec!r}); use IndexedWindowReader "
                f"or open_window_reader instead", path=path,
            )
        payload_bytes = info.file_bytes - HEADER.size
        if payload_bytes % RECORD.size:
            raise TraceFormatError(
                f"truncated binary trace: {payload_bytes % RECORD.size} "
                f"trailing bytes do not form a whole {RECORD.size}-byte "
                f"record", path=path,
            )
        # A non-finalized stream has a sentinel count; trust the file size.
        self._count = (info.access_count if info.access_count is not None
                       else payload_bytes // RECORD.size)
        self._file = None
        self._mmap: Optional[mmap.mmap] = None

    @property
    def access_count(self) -> int:
        """Number of records in the trace."""
        return self._count

    def _map(self) -> mmap.mmap:
        if self._mmap is None:
            self._file = self._path.open("rb")
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        return self._mmap

    def read_window(self, start: int, stop: int) -> List[MemoryAccess]:
        """Records ``[start, stop)`` (clipped to the trace), O(window)."""
        start, stop = _clip_window(start, stop, self._count)
        if start >= stop:
            return []
        view = memoryview(self._map())
        lo = HEADER.size + start * RECORD.size
        hi = HEADER.size + stop * RECORD.size
        try:
            return _decode_records(view[lo:hi])
        finally:
            view.release()

    def read_array(self, start: int, stop: int):
        """Records ``[start, stop)`` as a numpy structured array.

        One ``np.frombuffer`` over the packed slice -- no per-record
        decode at all.
        """
        from repro.engine.trace_array import decode_array

        start, stop = _clip_window(start, stop, self._count)
        view = memoryview(self._map())
        lo = HEADER.size + start * RECORD.size
        hi = HEADER.size + stop * RECORD.size
        try:
            # Copy the slice out of the mapping so the array never pins the
            # mmap open (windows are small relative to the trace).
            return decode_array(bytes(view[lo:hi]))
        finally:
            view.release()

    def read_all(self) -> List[MemoryAccess]:
        return self.read_window(0, self._count)

    def close(self) -> None:
        """Release the mapping (window reads reopen it on demand)."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "MmapTraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class IndexedWindowReader:
    """Window reads into a compressed trace via its chunk index.

    Only the codec members covering ``[start, stop)`` are read and
    decompressed, so the cost of a window scales with the window (plus at
    most one chunk of slack on each side), not with its offset.  Files that
    predate per-chunk members have a single seek point; their windows
    decompress from the payload start but still stop at the window's end.
    """

    def __init__(self, path: PathLike,
                 index: Optional[ChunkIndex] = None) -> None:
        self._path = Path(path)
        self._info = read_header(path)
        if self._info.access_count is None:
            raise TraceFormatError(
                "cannot window a non-finalized trace (unknown access count)",
                path=path,
            )
        self._index = index if index is not None else ChunkIndex.ensure(path)
        self._count = self._info.access_count
        self._file = None

    @property
    def access_count(self) -> int:
        """Number of records in the trace."""
        return self._count

    @property
    def index(self) -> ChunkIndex:
        return self._index

    def _read_span(self, start: int, stop: int) -> bytes:
        """Decompressed payload of the chunks covering ``[start, stop)``."""
        first = self._index.chunk_containing(start)
        last = self._index.chunk_containing(stop - 1)
        lo = self._index.offsets[first]
        hi = (self._index.offsets[last + 1]
              if last + 1 < len(self._index) else self._info.file_bytes)
        if self._file is None:
            self._file = self._path.open("rb")
        self._file.seek(lo)
        return decompress_members(self._file.read(hi - lo), self._info.codec,
                                  self._path)

    def read_window(self, start: int, stop: int) -> List[MemoryAccess]:
        """Records ``[start, stop)``, decompressing only covering chunks."""
        start, stop = _clip_window(start, stop, self._count)
        if start >= stop:
            return []
        blob = self._read_span(start, stop)
        base = self._index.starts[self._index.chunk_containing(start)]
        return _decode_records(
            blob[(start - base) * RECORD.size:(stop - base) * RECORD.size]
        )

    def read_array(self, start: int, stop: int):
        """Records ``[start, stop)`` as a numpy structured array.

        Decompresses only the covering chunks (like :meth:`read_window`)
        and bulk-decodes them with one ``np.frombuffer``.
        """
        from repro.engine.trace_array import decode_array

        start, stop = _clip_window(start, stop, self._count)
        if start >= stop:
            return decode_array(b"")
        blob = self._read_span(start, stop)
        base = self._index.starts[self._index.chunk_containing(start)]
        return decode_array(
            blob[(start - base) * RECORD.size:(stop - base) * RECORD.size]
        )

    def read_all(self) -> List[MemoryAccess]:
        return self.read_window(0, self._count)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "IndexedWindowReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_window_reader(path: PathLike):
    """The cheapest window-capable reader for a binary trace file.

    Uncompressed traces get the :class:`MmapTraceReader`; compressed ones
    the :class:`IndexedWindowReader` (reconstructing and saving the chunk
    index on first use if the sidecar is missing).
    """
    info = read_header(path)
    if info.codec == CODEC_NONE:
        return MmapTraceReader(path)
    return IndexedWindowReader(path)


# --------------------------------------------------------------------- #
# Window providers: the sampler's uniform trace-source interface.
# --------------------------------------------------------------------- #
class InMemoryWindows:
    """Windows over an already-materialized access sequence.

    The sequence is held as one packed record array (a record sequence is
    packed once, here), and :meth:`read` and :meth:`read_array` are the
    same zero-copy slice of it.
    """

    def __init__(self, trace) -> None:
        from repro.engine.trace_array import is_access_array, records_to_array

        self._trace = (trace if is_access_array(trace)
                       else records_to_array(trace))

    @property
    def total(self) -> int:
        return len(self._trace)

    def read(self, start: int, stop: int):
        """Accesses ``[start, stop)`` (clipped), a view of the array."""
        start, stop = _clip_window(start, stop, len(self._trace))
        return self._trace[start:stop]

    read_array = read

    def close(self) -> None:
        pass


class FileWindows:
    """Windows over an on-disk binary trace, opened seekably.

    ``limit`` caps the visible trace length (mirroring
    ``ExperimentConfig.num_accesses`` truncation of full replays) without
    reading past it.
    """

    def __init__(self, path: PathLike, limit: Optional[int] = None) -> None:
        if not is_binary_trace(path):
            raise TraceFormatError(
                "FileWindows requires a binary trace (convert with "
                "'repro trace convert' first)", path=path,
            )
        self._reader = open_window_reader(path)
        count = self._reader.access_count
        self._total = count if limit is None else min(count, limit)

    @property
    def total(self) -> int:
        return self._total

    def read(self, start: int, stop: int) -> Sequence[MemoryAccess]:
        start, stop = _clip_window(start, stop, self._total)
        return self._reader.read_window(start, stop)

    def read_array(self, start: int, stop: int):
        """The window as a numpy structured array, bulk-decoded on read."""
        start, stop = _clip_window(start, stop, self._total)
        return self._reader.read_array(start, stop)

    def close(self) -> None:
        self._reader.close()


__all__ = [
    "FileWindows",
    "IndexedWindowReader",
    "InMemoryWindows",
    "MmapTraceReader",
    "open_window_reader",
]
