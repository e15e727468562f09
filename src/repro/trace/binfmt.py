"""Compact struct-packed binary trace format.

This is the format ``repro trace gen``/``convert`` export and the
:class:`repro.trace.store.TraceStore` persists traces in.  Design goals, in
order: (1) traces far larger than memory stream through fixed-size chunks in
both directions, (2) loading costs no per-record work: the packed payload
*is* a :data:`RECORD_DTYPE` numpy array, so :func:`open_trace_array` opens a
trace as one array (record decode, for callers that want
:class:`MemoryAccess` objects, combines :meth:`struct.Struct.iter_unpack`
with direct ``tuple.__new__`` construction; see :func:`_decode_records`),
and (3) the file is self-describing: a fixed-size **uncompressed** header
precedes the (optionally compressed) record payload, so ``repro trace info``
can report version, core count, and access count without decompressing
anything.

Layout::

    offset 0: HEADER  = magic b"RPTR" | version u16 | flags u16
                        | num_cores u32 | access_count u64     (20 bytes, LE)
    offset 20: PAYLOAD = access_count x RECORD, as a sequence of per-chunk
                         codec members (gzip members when flags & FLAG_GZIP,
                         raw otherwise; any other flag bit is rejected)

    RECORD = address u64 | pc u64 | timestamp u64
             | core_id u16 | access_type u8                    (27 bytes, LE)

``access_count`` is written as :data:`UNKNOWN_COUNT` while a stream is being
produced and patched in place when the writer closes (the header is outside
the compressed members precisely so this seek-back works for compressed
traces too; on a non-seekable target the sentinel simply remains).

Compression codecs: ``gzip`` (level :data:`GZIP_LEVEL`, the default) and
``none``.  gzip concatenates its members transparently on sequential reads.
A raw payload is a plain array at a fixed offset, so
:func:`open_trace_array` memory-maps it: opening costs O(1) and a window
read touches only the window's pages, wherever it lies in the trace.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.trace.errors import TraceFormatError
from repro.trace.record import AccessType, MemoryAccess

PathLike = Union[str, Path]

#: First four bytes of every binary trace file ("RePro TRace").
MAGIC = b"RPTR"
#: Current format version.
VERSION = 1
#: Header flag: the record payload is a sequence of gzip members.
FLAG_GZIP = 0x0001
#: ``access_count`` value meaning "stream was not finalized".
UNKNOWN_COUNT = 2 ** 64 - 1

HEADER = struct.Struct("<4sHHIQ")
RECORD = struct.Struct("<QQQHB")

#: numpy structured dtype laid out exactly like :data:`RECORD` (27 bytes):
#: address u64 | pc u64 | timestamp u64 | core_id u16 | access_type u8.
#: An array of it *is* the packed payload, so ``np.frombuffer`` decodes a
#: whole payload with no per-record work and ``tobytes`` re-packs it.
RECORD_DTYPE = np.dtype({
    "names": ["address", "pc", "timestamp", "core_id", "access_type"],
    "formats": ["<u8", "<u8", "<u8", "<u2", "u1"],
    "offsets": [0, 8, 16, 24, 26],
    "itemsize": RECORD.size,
})

#: Records per streaming chunk (~432 KB of packed payload).
DEFAULT_CHUNK_RECORDS = 16384

#: Codec names accepted by the writer (and reported by the reader).
CODEC_NONE = "none"
CODEC_GZIP = "gzip"
CODECS = (CODEC_NONE, CODEC_GZIP)

_CODEC_FLAGS = {CODEC_NONE: 0, CODEC_GZIP: FLAG_GZIP}
#: gzip level of every compressed chunk: a slightly slower write than level
#: 1 for ~15% smaller files.
GZIP_LEVEL = 6

_TYPE_FROM_CODE = (AccessType.READ, AccessType.WRITE)

_MAX_U64 = 2 ** 64 - 1
_MAX_U16 = 2 ** 16 - 1


def _compress_chunk(blob: bytes, codec: str) -> bytes:
    """One chunk of packed records as a complete, standalone codec member."""
    if codec == CODEC_NONE:
        return blob
    # mtime=0 keeps the bytes deterministic across writes.
    return gzip.compress(blob, GZIP_LEVEL, mtime=0)


def _decode_records(blob) -> List[MemoryAccess]:
    """Decode a whole-record payload slice into MemoryAccess objects.

    This is the hottest loop of the trace subsystem (a million-access trace
    is a million constructions), so it bypasses the validating constructor:
    ``tuple.__new__`` on the namedtuple subclass, with fields already
    range-guaranteed by the unsigned struct encoding.  Positional indexing
    into the unpacked record measures slightly faster than tuple unpacking.
    """
    tuple_new = tuple.__new__
    cls = MemoryAccess
    types = _TYPE_FROM_CODE
    return [
        tuple_new(cls, (r[0], r[1], types[r[4]], r[3], r[2]))
        for r in RECORD.iter_unpack(blob)
    ]


def _read(payload: IO[bytes], path: PathLike, size: int = -1) -> bytes:
    """``payload.read(size)``; a damaged gzip stream is a format error.

    A gzip payload cut short, or one whose bytes no longer match its
    checksum, raises ``EOFError``, ``zlib.error`` or
    ``gzip.BadGzipFile``; callers see :class:`TraceFormatError` instead.
    """
    try:
        return payload.read(size)
    except (EOFError, zlib.error, gzip.BadGzipFile) as error:
        raise TraceFormatError(f"corrupt gzip payload: {error}",
                               path=path) from error


def _partial_record(path: PathLike, trailing: int) -> TraceFormatError:
    """The error for a payload that ends ``trailing`` bytes into a record."""
    return TraceFormatError(
        f"truncated binary trace: {trailing} trailing bytes do not form a "
        f"whole {RECORD.size}-byte record", path=path,
    )


@dataclass(frozen=True)
class BinaryTraceInfo:
    """Decoded header of a binary trace file."""

    path: str
    version: int
    num_cores: int
    #: ``None`` when the stream was never finalized (:data:`UNKNOWN_COUNT`).
    access_count: Optional[int]
    file_bytes: int
    #: Payload codec name (one of :data:`CODECS`).
    codec: str


def is_binary_trace(path: PathLike) -> bool:
    """True when ``path`` starts with the binary trace magic."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_header(path: PathLike) -> BinaryTraceInfo:
    """Read and validate the fixed header of a binary trace file."""
    path = Path(path)
    with path.open("rb") as handle:
        blob = handle.read(HEADER.size)
    if len(blob) < HEADER.size:
        raise TraceFormatError(
            f"file too short for a binary trace header "
            f"({len(blob)} < {HEADER.size} bytes)", path=path,
        )
    magic, version, flags, num_cores, count = HEADER.unpack(blob)
    if magic != MAGIC:
        raise TraceFormatError(
            f"bad magic {magic!r} (expected {MAGIC!r}); not a binary trace",
            path=path,
        )
    if version > VERSION:
        raise TraceFormatError(
            f"unsupported binary trace version {version} "
            f"(this reader understands <= {VERSION})", path=path,
        )
    unknown = flags & ~FLAG_GZIP
    if unknown:
        raise TraceFormatError(
            f"unknown header flag bits 0x{unknown:04x} (this reader "
            f"understands only gzip, 0x{FLAG_GZIP:04x})", path=path,
        )
    codec = CODEC_GZIP if flags else CODEC_NONE
    return BinaryTraceInfo(
        path=str(path),
        version=version,
        num_cores=num_cores,
        access_count=None if count == UNKNOWN_COUNT else count,
        file_bytes=path.stat().st_size,
        codec=codec,
    )


def finalized_header(path: PathLike) -> BinaryTraceInfo:
    """:func:`read_header`, refusing a trace whose writer never finished.

    A non-finalized header has no access count, so no reader can tell a
    complete payload from a cut one: :class:`TraceFormatError`.
    """
    info = read_header(path)
    if info.access_count is None:
        raise TraceFormatError(
            "cannot open a non-finalized trace (unknown access count)",
            path=path,
        )
    return info


class BinaryTraceWriter:
    """Stream accesses into a binary trace file; a context manager.

    Each buffered chunk of :data:`DEFAULT_CHUNK_RECORDS` records is written
    as an independent codec member.

    Parameters
    ----------
    path:
        Destination file.
    num_cores:
        Core count recorded in the header (0 = unspecified).
    codec:
        Payload codec (:data:`CODECS`); the header stays uncompressed.
    """

    def __init__(self, path: PathLike, num_cores: int = 0,
                 codec: str = CODEC_GZIP) -> None:
        if num_cores < 0:
            raise ValueError("num_cores must be non-negative")
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r}; known: {CODECS}")
        self._path = Path(path)
        self._num_cores = num_cores
        self._codec = codec
        self._raw: Optional[IO[bytes]] = None
        self._buffer: List[bytes] = []
        self._buffered = 0
        self._count = 0

    def __enter__(self) -> "BinaryTraceWriter":
        self._raw = self._path.open("wb")
        self._raw.write(self._header(UNKNOWN_COUNT))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Only finalize the header on a clean exit: an aborted stream keeps
        # the UNKNOWN_COUNT sentinel, so a partially-written file can never
        # pass for a complete trace (``trace info`` reports it as
        # non-finalized).
        self.close(finalize=exc_type is None)

    def _header(self, count: int) -> bytes:
        flags = _CODEC_FLAGS[self._codec]
        return HEADER.pack(MAGIC, VERSION, flags, self._num_cores, count)

    def write(self, access: MemoryAccess) -> None:
        """Append one access."""
        if self._raw is None:
            raise RuntimeError(
                "BinaryTraceWriter must be used as a context manager"
            )
        if not (0 <= access.address <= _MAX_U64
                and 0 <= access.pc <= _MAX_U64
                and 0 <= access.timestamp <= _MAX_U64):
            raise TraceFormatError(
                f"field outside the unsigned 64-bit range, not "
                f"representable: {access!r}", path=self._path,
            )
        if not 0 <= access.core_id <= _MAX_U16:
            raise TraceFormatError(
                f"core_id {access.core_id} outside the unsigned 16-bit "
                f"range", path=self._path,
            )
        self._buffer.append(RECORD.pack(
            access.address, access.pc, access.timestamp, access.core_id,
            1 if access.access_type is AccessType.WRITE else 0,
        ))
        self._count += 1
        self._buffered += 1
        if self._buffered >= DEFAULT_CHUNK_RECORDS:
            self._flush()

    def write_all(self, accesses) -> None:
        """Append every access from an iterable, chunk by chunk.

        A :data:`RECORD_DTYPE` array is already the packed payload: its
        bytes are appended directly, cut at the same chunk boundaries a
        record-by-record write produces, so the file bytes are identical.
        """
        if not is_record_array(accesses):
            for access in accesses:
                self.write(access)
            return
        if self._raw is None:
            raise RuntimeError(
                "BinaryTraceWriter must be used as a context manager"
            )
        done, total = 0, len(accesses)
        while done < total:
            take = min(total - done, DEFAULT_CHUNK_RECORDS - self._buffered)
            self._buffer.append(accesses[done:done + take].tobytes())
            done += take
            self._count += take
            self._buffered += take
            if self._buffered >= DEFAULT_CHUNK_RECORDS:
                self._flush()

    @property
    def count(self) -> int:
        """Number of accesses written so far."""
        return self._count

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._raw.write(_compress_chunk(b"".join(self._buffer), self._codec))
        self._buffer.clear()
        self._buffered = 0

    def close(self, finalize: bool = True) -> None:
        """Finish the payload and patch the final access count in place.

        With ``finalize=False`` the header keeps the :data:`UNKNOWN_COUNT`
        sentinel, marking the stream as aborted/incomplete.
        """
        if self._raw is None:
            return
        self._flush()
        if finalize and self._raw.seekable():
            self._raw.seek(0)
            self._raw.write(self._header(self._count))
        self._raw.close()
        self._raw = None


class BinaryTraceReader:
    """Iterate over a binary trace file; re-iterable and streaming.

    Iterating never materializes more than one chunk
    (:data:`DEFAULT_CHUNK_RECORDS` records) at a time.  To replay a trace,
    or windows of it, open it as one array with :func:`open_trace_array`.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)

    @property
    def path(self) -> Path:
        return self._path

    def info(self) -> BinaryTraceInfo:
        """The decoded file header."""
        return read_header(self._path)

    def _open_payload(self) -> "tuple[IO[bytes], IO[bytes]]":
        """Open the record payload; returns ``(payload, raw)`` for closing."""
        info = read_header(self._path)  # validates magic/version
        raw = self._path.open("rb")
        raw.seek(HEADER.size)
        if info.codec == CODEC_GZIP:
            return gzip.GzipFile(fileobj=raw, mode="rb"), raw
        return raw, raw

    def iter_chunks(self, chunk_records: int = DEFAULT_CHUNK_RECORDS,
                    ) -> Iterator[List[MemoryAccess]]:
        """Yield the trace as lists of at most ``chunk_records`` accesses."""
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        chunk_bytes = chunk_records * RECORD.size
        payload, raw = self._open_payload()
        try:
            pending = b""
            while True:
                blob = _read(payload, self._path, chunk_bytes)
                if not blob:
                    break
                if pending:
                    blob = pending + blob
                    pending = b""
                trailing = len(blob) % RECORD.size
                if trailing:
                    pending = blob[-trailing:]
                    blob = blob[:-trailing]
                yield _decode_records(blob)
            if pending:
                raise _partial_record(self._path, len(pending))
        finally:
            payload.close()
            raw.close()

    def __iter__(self) -> Iterator[MemoryAccess]:
        for chunk in self.iter_chunks():
            yield from chunk

    def _read_payload(self) -> bytes:
        """The whole decompressed record payload (whole records only)."""
        payload, raw = self._open_payload()
        try:
            blob = _read(payload, self._path)
        finally:
            payload.close()
            raw.close()
        if len(blob) % RECORD.size:
            raise _partial_record(self._path, len(blob) % RECORD.size)
        return blob

    def read_all_array(self):
        """The whole trace as one :data:`RECORD_DTYPE` array.

        ``np.frombuffer`` over the decompressed payload: no record is
        decoded one by one.  An access-type code other than read (0) or
        write (1) raises :class:`TraceFormatError` (no record could hold
        it).
        """
        return check_access_types(
            np.frombuffer(self._read_payload(), dtype=RECORD_DTYPE),
            self._path)

    def read_all(self) -> List[MemoryAccess]:
        """Read the whole trace into a list.

        Decodes the payload in one pass (a transient second copy of the
        packed bytes, ~27 MB per million accesses); use :meth:`iter_chunks`
        when even that must not be held at once, and
        :meth:`read_all_array` when no per-record object is needed.
        """
        return _decode_records(self._read_payload())


def is_record_array(obj) -> bool:
    """True if ``obj`` is a numpy array of :data:`RECORD_DTYPE` records."""
    return isinstance(obj, np.ndarray) and obj.dtype == RECORD_DTYPE


def check_access_types(records: np.ndarray,
                       path: PathLike = "<memory>") -> np.ndarray:
    """``records``, once every access-type code is read (0) or write (1).

    Any other code raises :class:`TraceFormatError` (no record could hold
    it).
    """
    if len(records) and int(records["access_type"].max()) > 1:
        raise TraceFormatError(
            "binary trace holds an access-type code other than "
            "read (0) or write (1)", path=path,
        )
    return records


def open_trace_array(path: PathLike,
                     limit: Optional[int] = None) -> np.ndarray:
    """The first ``limit`` records of a binary trace file as one array.

    A raw payload (codec ``none``) is memory-mapped: opening costs O(1)
    whatever the trace's length, and a slice reads only its own pages.  A
    gzip payload is decompressed once, up to ``limit`` records.  Either
    way no record is decoded one by one.

    A non-finalized header, a payload that ends inside a record or
    before the records its header promises, or a damaged gzip stream
    raises :class:`TraceFormatError`.  When ``limit`` covers the whole
    trace a gzip payload is read to its end, so every member's checksum
    and length trailer is verified.  Access-type codes are left to
    :func:`check_access_types`, so that a caller reading windows of a
    mapped trace checks only what it reads.
    """
    path = Path(path)
    info = finalized_header(path)
    count = (info.access_count if limit is None
             else min(limit, info.access_count))
    want = count * RECORD.size
    if info.codec == CODEC_NONE:
        payload_bytes = info.file_bytes - HEADER.size
    else:
        whole = count == info.access_count
        with path.open("rb") as raw:
            raw.seek(HEADER.size)
            with gzip.GzipFile(fileobj=raw, mode="rb") as payload:
                blob = _read(payload, path, -1 if whole else want)
        payload_bytes = len(blob)
    if payload_bytes % RECORD.size:
        raise _partial_record(path, payload_bytes % RECORD.size)
    if payload_bytes < want:
        raise TraceFormatError(
            f"truncated binary trace: the payload holds "
            f"{payload_bytes // RECORD.size} records, the header promises "
            f"{info.access_count}", path=path,
        )
    if info.codec != CODEC_NONE:
        return np.frombuffer(blob, dtype=RECORD_DTYPE, count=count)
    if count == 0:
        return np.empty(0, dtype=RECORD_DTYPE)
    # asarray drops the memmap subclass; the mapping lives on as its base.
    return np.asarray(np.memmap(path, dtype=RECORD_DTYPE, mode="r",
                                offset=HEADER.size, shape=(count,)))


def write_trace_bin(path: PathLike, accesses: Iterable[MemoryAccess],
                    num_cores: int = 0, codec: str = CODEC_GZIP) -> int:
    """Write all accesses to ``path`` in binary form; returns the count.

    ``accesses`` may be records or a :data:`RECORD_DTYPE` array (written
    byte for byte).
    """
    with BinaryTraceWriter(path, num_cores=num_cores, codec=codec) as writer:
        writer.write_all(accesses)
        return writer.count


def read_trace_bin(path: PathLike) -> List[MemoryAccess]:
    """Read a whole binary trace from ``path``."""
    return BinaryTraceReader(path).read_all()


__all__ = [
    "BinaryTraceInfo",
    "BinaryTraceReader",
    "BinaryTraceWriter",
    "CODECS",
    "CODEC_GZIP",
    "CODEC_NONE",
    "DEFAULT_CHUNK_RECORDS",
    "FLAG_GZIP",
    "GZIP_LEVEL",
    "MAGIC",
    "RECORD_DTYPE",
    "UNKNOWN_COUNT",
    "VERSION",
    "check_access_types",
    "finalized_header",
    "is_binary_trace",
    "is_record_array",
    "open_trace_array",
    "read_header",
    "read_trace_bin",
    "write_trace_bin",
]
