"""Window providers: the sampler's uniform trace-source interface.

A provider holds one packed record array and answers ``total`` (its length)
and ``read_array(start, stop)`` (a window of it, clipped to the trace;
``read`` is the same slice):

* :class:`InMemoryWindows` -- over an already-materialized access sequence
  (a record sequence is packed once, here).
* :class:`FileWindows` -- over a binary trace file, opened with
  :func:`~repro.trace.binfmt.open_trace_array`.  A raw (``--codec none``)
  file is memory-mapped, so a window deep in a multi-gigabyte trace opens
  in O(window) without reading the prefix; a gzip file is decompressed once
  up to the run's access count, which a full replay of it holds too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.trace.binfmt import (check_access_types, is_binary_trace,
                                open_trace_array)
from repro.trace.errors import TraceFormatError

PathLike = Union[str, Path]


def _clip_window(start: int, stop: int, count: int) -> "tuple[int, int]":
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop")
    return min(start, count), min(stop, count)


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


class FileWindows(InMemoryWindows):
    """Windows over a binary trace file's records.

    ``limit`` caps the visible trace length (mirroring
    ``ExperimentConfig.num_accesses`` truncation of full replays) without
    reading past it.  Each window's access-type codes are checked as it is
    read, so opening a mapped file stays O(1).
    """

    def __init__(self, path: PathLike, limit: Optional[int] = None) -> None:
        if not is_binary_trace(path):
            raise TraceFormatError(
                "FileWindows requires a binary trace (convert with "
                "'repro trace convert' first)", path=path,
            )
        super().__init__(open_trace_array(path, limit))
        self._path = path

    def read(self, start: int, stop: int):
        """Accesses ``[start, stop)`` (clipped), a checked view."""
        start, stop = _clip_window(start, stop, len(self._trace))
        return check_access_types(self._trace[start:stop], self._path)

    # Attributes of its own (not inherited), so a wrapper installed on
    # InMemoryWindows.read/read_array never also wraps these reads.
    read_array = read


__all__ = [
    "FileWindows",
    "InMemoryWindows",
]
