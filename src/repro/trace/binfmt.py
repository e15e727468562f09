"""Compact struct-packed binary trace format with streaming access.

This is the format the :class:`repro.trace.store.TraceStore` persists traces
in.  Design goals, in order: (1) traces far larger than memory stream through
fixed-size chunks in both directions, (2) loading costs no per-record work:
the packed payload *is* a :data:`RECORD_DTYPE` numpy array, so
:meth:`BinaryTraceReader.read_all_array` decodes a whole trace with one
``np.frombuffer`` (record decode, for callers that want
:class:`MemoryAccess` objects, combines :meth:`struct.Struct.iter_unpack`
with direct ``tuple.__new__`` construction; see :func:`_decode_records`) --
(3) the file is
self-describing: a fixed-size **uncompressed** header precedes the (optionally
compressed) record payload, so ``repro trace info`` can report version,
core count, and access count without decompressing anything -- and (4) files
are **seekable at chunk granularity**: each streaming chunk is written as an
independent compression member, and a sidecar :class:`ChunkIndex` maps record
indices to the file offsets of those members, so a measurement window deep in
the trace opens without decoding the prefix (the sampled-simulation layer in
:mod:`repro.sampling` builds on this).

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

Compression codecs: ``gzip`` (stdlib, the default) and ``none``.  gzip
concatenates its members transparently on sequential reads, so a whole-trace
read never consults the chunk index.
"""

from __future__ import annotations

import bisect
import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

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
_DEFAULT_LEVELS = {CODEC_GZIP: 6}

_TYPE_FROM_CODE = (AccessType.READ, AccessType.WRITE)

_MAX_U64 = 2 ** 64 - 1
_MAX_U16 = 2 ** 16 - 1


def _compress_chunk(blob: bytes, codec: str, level: int) -> bytes:
    """One chunk of packed records as a complete, standalone codec member."""
    if codec == CODEC_NONE:
        return blob
    # mtime=0 keeps the bytes deterministic across writes.
    return gzip.compress(blob, compresslevel=level, mtime=0)


def _gzip_member():
    """A decompressor object for one gzip member.

    It exposes ``decompress``, ``eof`` and ``unused_data`` (the zlib
    protocol), which is what member-boundary scans and member-range
    decompression need.
    """
    return zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)


def decompress_members(blob: bytes, codec: str,
                       path: PathLike = "<memory>") -> bytes:
    """Decompress a byte range holding one or more whole codec members."""
    if codec == CODEC_NONE:
        return blob
    parts = []
    view = memoryview(blob)
    while len(view):
        member = _gzip_member()
        parts.append(member.decompress(view))
        if not member.eof:
            raise TraceFormatError(
                "truncated compression member in binary trace payload",
                path=path,
            )
        view = memoryview(member.unused_data)
    return b"".join(parts)


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


@dataclass(frozen=True)
class BinaryTraceInfo:
    """Decoded header of a binary trace file."""

    path: str
    version: int
    compressed: bool
    num_cores: int
    #: ``None`` when the stream was never finalized (:data:`UNKNOWN_COUNT`).
    access_count: Optional[int]
    file_bytes: int
    #: Payload codec name (one of :data:`CODECS`).
    codec: str = CODEC_GZIP


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
        compressed=codec != CODEC_NONE,
        num_cores=num_cores,
        access_count=None if count == UNKNOWN_COUNT else count,
        file_bytes=path.stat().st_size,
        codec=codec,
    )


# --------------------------------------------------------------------- #
# Chunk index sidecar
# --------------------------------------------------------------------- #
#: Suffix appended to a trace path to name its chunk-index sidecar.
INDEX_SUFFIX = ".rpti"
INDEX_MAGIC = b"RPTI"
INDEX_VERSION = 1
#: magic | version u16 | flags u16 | chunk_records u32 | access_count u64
#: | num_entries u64
INDEX_HEADER = struct.Struct("<4sHHIQQ")
#: start_record u64 | absolute file offset of the chunk's codec member u64
INDEX_ENTRY = struct.Struct("<QQ")


def index_path_for(trace_path: PathLike) -> Path:
    """The sidecar path holding the chunk index of ``trace_path``."""
    trace_path = Path(trace_path)
    return trace_path.with_name(trace_path.name + INDEX_SUFFIX)


@dataclass(frozen=True)
class ChunkIndex:
    """Maps record indices to file offsets of per-chunk codec members.

    Entry ``i`` says: the member starting at file offset ``offsets[i]``
    decodes to records ``[starts[i], starts[i+1])`` (the last entry runs to
    ``access_count``).  Written as a sidecar by :class:`BinaryTraceWriter`
    and reconstructable for files that predate the sidecar (see
    :meth:`reconstruct`); consumed by the seekable readers in
    :mod:`repro.sampling.seekable`.
    """

    codec: str
    access_count: int
    chunk_records: int
    #: Record index of the first record of each chunk, ascending.
    starts: Tuple[int, ...]
    #: Absolute file offset of each chunk's codec member.
    offsets: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.offsets):
            raise ValueError("starts and offsets must have equal length")
        if list(self.starts) != sorted(set(self.starts)):
            raise ValueError("chunk starts must be strictly ascending")

    def __len__(self) -> int:
        return len(self.starts)

    def chunk_containing(self, record_index: int) -> int:
        """Index of the chunk entry holding ``record_index``."""
        if not self.starts:
            raise ValueError("empty chunk index has no chunks")
        if not 0 <= record_index < self.access_count:
            raise IndexError(
                f"record {record_index} outside [0, {self.access_count})"
            )
        return bisect.bisect_right(self.starts, record_index) - 1

    # ------------------------------------------------------------------ #
    def save(self, trace_path: PathLike) -> Path:
        """Write the sidecar next to ``trace_path``; returns its path."""
        path = index_path_for(trace_path)
        blob = [INDEX_HEADER.pack(
            INDEX_MAGIC, INDEX_VERSION, _CODEC_FLAGS[self.codec],
            self.chunk_records, self.access_count, len(self.starts),
        )]
        blob.extend(INDEX_ENTRY.pack(start, offset)
                    for start, offset in zip(self.starts, self.offsets))
        path.write_bytes(b"".join(blob))
        return path

    @classmethod
    def load(cls, trace_path: PathLike) -> Optional["ChunkIndex"]:
        """Load and validate the sidecar of ``trace_path``.

        Returns ``None`` when the sidecar is missing, corrupt, or stale
        (its access count or codec disagrees with the trace header) -- the
        caller then falls back to :meth:`reconstruct`.
        """
        sidecar = index_path_for(trace_path)
        try:
            blob = sidecar.read_bytes()
            info = read_header(trace_path)
        except (OSError, TraceFormatError):
            return None
        if len(blob) < INDEX_HEADER.size:
            return None
        magic, version, flags, chunk_records, count, entries = (
            INDEX_HEADER.unpack_from(blob)
        )
        if (magic != INDEX_MAGIC or version > INDEX_VERSION
                or len(blob) != INDEX_HEADER.size + entries * INDEX_ENTRY.size):
            return None
        if flags != _CODEC_FLAGS[info.codec] or info.access_count != count:
            return None  # stale: the trace was rewritten since
        pairs = list(INDEX_ENTRY.iter_unpack(blob[INDEX_HEADER.size:]))
        starts = tuple(p[0] for p in pairs)
        offsets = tuple(p[1] for p in pairs)
        if offsets and (offsets[0] < HEADER.size
                        or offsets[-1] >= info.file_bytes):
            return None
        try:
            return cls(codec=info.codec, access_count=count,
                       chunk_records=chunk_records, starts=starts,
                       offsets=offsets)
        except ValueError:
            return None

    @classmethod
    def reconstruct(cls, trace_path: PathLike) -> "ChunkIndex":
        """Rebuild the index of a trace written without a sidecar.

        Uncompressed traces index in O(1) (records are fixed-size, offsets
        are arithmetic).  Compressed traces are scanned once for member
        boundaries (cheap: decompression without record construction); a
        legacy single-member file naturally yields a one-entry index, which
        window readers treat as "no interior seek points".
        """
        info = read_header(trace_path)
        if info.access_count is None:
            raise TraceFormatError(
                "cannot index a non-finalized trace (unknown access count)",
                path=trace_path,
            )
        count = info.access_count
        if info.codec == CODEC_NONE:
            starts = tuple(range(0, count, DEFAULT_CHUNK_RECORDS))
            offsets = tuple(HEADER.size + s * RECORD.size for s in starts)
            return cls(codec=info.codec, access_count=count,
                       chunk_records=DEFAULT_CHUNK_RECORDS, starts=starts,
                       offsets=offsets)
        starts_list: List[int] = []
        offsets_list: List[int] = []
        with Path(trace_path).open("rb") as handle:
            handle.seek(HEADER.size)
            member_offset = HEADER.size
            records_seen = 0
            decomp = None
            member_bytes = 0
            pending = b""
            while True:
                chunk = pending or handle.read(1 << 20)
                pending = b""
                if not chunk:
                    break
                if decomp is None:
                    decomp = _gzip_member()
                    starts_list.append(records_seen)
                    offsets_list.append(member_offset)
                    member_bytes = 0
                consumed = len(chunk)
                member_bytes += len(decomp.decompress(chunk))
                if decomp.eof:
                    unused = decomp.unused_data
                    consumed -= len(unused)
                    records_seen += member_bytes // RECORD.size
                    pending = unused
                    decomp = None
                member_offset += consumed
            if decomp is not None:
                raise TraceFormatError(
                    "truncated compression member while indexing",
                    path=trace_path,
                )
        return cls(codec=info.codec, access_count=count,
                   chunk_records=DEFAULT_CHUNK_RECORDS,
                   starts=tuple(starts_list), offsets=tuple(offsets_list))

    @classmethod
    def ensure(cls, trace_path: PathLike, save: bool = True) -> "ChunkIndex":
        """The index of ``trace_path``: loaded, else reconstructed (+saved)."""
        index = cls.load(trace_path)
        if index is not None:
            return index
        index = cls.reconstruct(trace_path)
        if save:
            try:
                index.save(trace_path)
            except OSError:
                pass  # read-only directory: the in-memory index still works
        return index


class BinaryTraceWriter:
    """Stream accesses into a binary trace file; a context manager.

    Each buffered chunk is written as an independent codec member and its
    ``(first record, file offset)`` pair is recorded; on a clean close the
    pairs become the :class:`ChunkIndex` sidecar, so readers can open a
    window anywhere in the trace without decoding the prefix.

    Parameters
    ----------
    path:
        Destination file.
    num_cores:
        Core count recorded in the header (0 = unspecified).
    compress:
        Compress the record payload (the header stays uncompressed).
    compresslevel:
        Codec compression level; ``None`` picks the codec default (gzip 6 --
        trades a slightly slower write for ~15% smaller files than level 1).
    codec:
        Payload codec (:data:`CODECS`); ``None`` derives it from ``compress``
        (gzip when true).
    write_index:
        Write the :class:`ChunkIndex` sidecar on a clean close.
    """

    def __init__(self, path: PathLike, num_cores: int = 0,
                 compress: bool = True,
                 compresslevel: Optional[int] = None,
                 codec: Optional[str] = None,
                 write_index: bool = True) -> None:
        if num_cores < 0:
            raise ValueError("num_cores must be non-negative")
        if codec is None:
            codec = CODEC_GZIP if compress else CODEC_NONE
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r}; known: {CODECS}")
        self._path = Path(path)
        self._num_cores = num_cores
        self._codec = codec
        self._compresslevel = (compresslevel if compresslevel is not None
                               else _DEFAULT_LEVELS.get(codec, 0))
        self._write_index = write_index
        self._raw: Optional[IO[bytes]] = None
        self._buffer: List[bytes] = []
        self._buffered = 0
        self._count = 0
        self._index_starts: List[int] = []
        self._index_offsets: List[int] = []

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
        self._index_starts.append(self._count - self._buffered)
        self._index_offsets.append(self._raw.tell())
        blob = b"".join(self._buffer)
        self._raw.write(_compress_chunk(blob, self._codec,
                                        self._compresslevel))
        self._buffer.clear()
        self._buffered = 0

    def close(self, finalize: bool = True) -> None:
        """Finish the payload and patch the final access count in place.

        With ``finalize=False`` the header keeps the :data:`UNKNOWN_COUNT`
        sentinel, marking the stream as aborted/incomplete (and no chunk
        index is written).
        """
        if self._raw is None:
            return
        self._flush()
        if finalize and self._raw.seekable():
            self._raw.seek(0)
            self._raw.write(self._header(self._count))
            if self._write_index:
                try:
                    ChunkIndex(
                        codec=self._codec, access_count=self._count,
                        chunk_records=DEFAULT_CHUNK_RECORDS,
                        starts=tuple(self._index_starts),
                        offsets=tuple(self._index_offsets),
                    ).save(self._path)
                except OSError:
                    # The sidecar is an optional accelerator (readers
                    # reconstruct it on demand); failing to write it must
                    # not fail the completed trace write.
                    pass
        self._raw.close()
        self._raw = None


class BinaryTraceReader:
    """Iterate over a binary trace file; re-iterable and streaming.

    Iterating never materializes more than one chunk
    (:data:`DEFAULT_CHUNK_RECORDS` records) at a time.  For random access
    into uncompressed traces see
    :class:`repro.sampling.seekable.MmapTraceReader`; the :meth:`read_window`
    here is the streaming fallback (it skips the prefix without constructing
    records, but still reads through it).
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
                blob = payload.read(chunk_bytes)
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
                raise TraceFormatError(
                    f"truncated binary trace: {len(pending)} trailing bytes "
                    f"do not form a whole {RECORD.size}-byte record",
                    path=self._path,
                )
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
            blob = payload.read()
        finally:
            payload.close()
            raw.close()
        if len(blob) % RECORD.size:
            raise TraceFormatError(
                f"truncated binary trace: {len(blob) % RECORD.size} trailing "
                f"bytes do not form a whole {RECORD.size}-byte record",
                path=self._path,
            )
        return blob

    def read_all_array(self):
        """The whole trace as one :data:`RECORD_DTYPE` array.

        ``np.frombuffer`` over the decompressed payload: no record is
        decoded one by one.  An access-type code other than read (0) or
        write (1) raises :class:`TraceFormatError` (no record could hold
        it).
        """
        array = np.frombuffer(self._read_payload(), dtype=RECORD_DTYPE)
        if len(array) and int(array["access_type"].max()) > 1:
            raise TraceFormatError(
                "binary trace holds an access-type code other than "
                "read (0) or write (1)", path=self._path,
            )
        return array

    def read_all(self) -> List[MemoryAccess]:
        """Read the whole trace into a list.

        Decodes the payload in one pass (a transient second copy of the
        packed bytes, ~27 MB per million accesses); use :meth:`iter_chunks`
        when even that must not be held at once, and
        :meth:`read_all_array` when no per-record object is needed.
        """
        return _decode_records(self._read_payload())

    def read_window(self, start: int, stop: int) -> List[MemoryAccess]:
        """Records ``[start, stop)``, skipping the prefix without decoding.

        The prefix is still *read* (and decompressed, for compressed
        payloads) -- this is the sequential fallback.  The seekable readers
        in :mod:`repro.sampling.seekable` open windows in O(window) instead.
        """
        if start < 0 or stop < start:
            raise ValueError("need 0 <= start <= stop")
        payload, raw = self._open_payload()
        try:
            skip = start * RECORD.size
            if payload is raw:
                raw.seek(HEADER.size + skip)
            else:
                while skip > 0:
                    blob = payload.read(min(skip, 1 << 20))
                    if not blob:
                        return []
                    skip -= len(blob)
            blob = payload.read((stop - start) * RECORD.size)
        finally:
            payload.close()
            raw.close()
        return _decode_records(blob[:len(blob) - len(blob) % RECORD.size])


def is_record_array(obj) -> bool:
    """True if ``obj`` is a numpy array of :data:`RECORD_DTYPE` records."""
    return isinstance(obj, np.ndarray) and obj.dtype == RECORD_DTYPE


def write_trace_bin(path: PathLike, accesses: Iterable[MemoryAccess],
                    num_cores: int = 0, compress: bool = True,
                    codec: Optional[str] = None,
                    write_index: bool = True) -> int:
    """Write all accesses to ``path`` in binary form; returns the count.

    ``accesses`` may be records or a :data:`RECORD_DTYPE` array (written
    byte for byte).
    """
    with BinaryTraceWriter(path, num_cores=num_cores, compress=compress,
                           codec=codec, write_index=write_index) as writer:
        writer.write_all(accesses)
        return writer.count


def read_trace_bin(path: PathLike) -> List[MemoryAccess]:
    """Read a whole binary trace from ``path``."""
    return BinaryTraceReader(path).read_all()


__all__ = [
    "BinaryTraceInfo",
    "BinaryTraceReader",
    "BinaryTraceWriter",
    "ChunkIndex",
    "CODECS",
    "CODEC_GZIP",
    "CODEC_NONE",
    "DEFAULT_CHUNK_RECORDS",
    "FLAG_GZIP",
    "INDEX_SUFFIX",
    "MAGIC",
    "RECORD_DTYPE",
    "UNKNOWN_COUNT",
    "VERSION",
    "decompress_members",
    "index_path_for",
    "is_binary_trace",
    "is_record_array",
    "read_header",
    "read_trace_bin",
    "write_trace_bin",
]
