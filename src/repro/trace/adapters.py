"""Ingestion adapters: replay traces captured by external tools.

The simulator's native formats are the text codec (:mod:`repro.trace.io`) and
the binary codec (:mod:`repro.trace.binfmt`).  This module adapts two common
external shapes into :class:`MemoryAccess` streams so real workload traces
become first-class workloads (usable in :class:`repro.sim.spec.SweepSpec`
grids via trace-file workloads, and convertible with ``repro trace convert``):

**ChampSim-style** (``.champsim`` / ``.champsimtrace``): whitespace-separated
lines of ``pc address type [core [cycle]]``.  ``pc`` and ``address`` are hex
(``0x`` prefix optional); ``type`` is ``R``/``W``, ``L``/``S`` (load/store),
or ``0``/``1``.  When the ``cycle`` column is absent, timestamps
auto-increment in line order.  Comment lines start with ``#``.

**CSV** (``.csv``): a header row names the columns.  ``address`` is required;
``pc``, ``type``, ``core``, and ``timestamp`` are optional (missing columns
default to 0 / read / auto-increment).  Numeric cells may be decimal or
``0x``-prefixed hex.

**gem5** (``.gem5``): the text a gem5 run prints with
``--debug-flags=MemoryAccess`` redirected to a file, i.e. lines of the form
``<tick>: <object>: Read ... [Aa]ddr(ess) 0x... [size N]``.  The access verb
(``Read``/``Write`` and their packet-command spellings ``ReadReq``,
``WriteReq``, ``ReadExReq``, ``WritebackDirty``, ...) decides the access
type; the core id is recovered from a ``cpuN`` component of the object path
when present; the tick becomes the timestamp.  Debug output is noisy by
nature (other flags interleave freely), so lines that do not look like a
memory access are skipped rather than rejected -- but a file that yields *no*
accesses at all raises :class:`TraceFormatError`.

All adapters stream line by line, are gzip-transparent (``.gz``), and raise
:class:`TraceFormatError` with file and line number on malformed input.

The :data:`FORMATS` registry ties every known format name to its reader (and
writer, for the native formats); :func:`detect_format` sniffs a file, and
:func:`convert_trace` streams any readable format into any writable one.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Optional, Union

from repro.trace import binfmt, io as trace_io
from repro.trace.errors import TraceFormatError
from repro.trace.record import AccessType, MemoryAccess

PathLike = Union[str, Path]

_CHAMPSIM_TYPES = {
    "R": AccessType.READ, "W": AccessType.WRITE,
    "r": AccessType.READ, "w": AccessType.WRITE,
    "L": AccessType.READ, "S": AccessType.WRITE,
    "l": AccessType.READ, "s": AccessType.WRITE,
    "0": AccessType.READ, "1": AccessType.WRITE,
}

_CSV_TYPES = dict(_CHAMPSIM_TYPES)
_CSV_TYPES.update({
    "read": AccessType.READ, "write": AccessType.WRITE,
    "READ": AccessType.READ, "WRITE": AccessType.WRITE,
})


def _parse_hex(field: str, what: str, path: PathLike,
               line_number: int) -> int:
    """Parse a hex number (``0x`` prefix optional)."""
    try:
        return int(field, 16)
    except ValueError:
        raise TraceFormatError(
            f"bad {what} {field!r} (expected hex)", path=path,
            line=line_number,
        ) from None


def _parse_int(field: str, what: str, path: PathLike,
               line_number: int) -> int:
    """Parse a number that may be decimal or ``0x``-prefixed hex."""
    try:
        return int(field, 0)
    except ValueError:
        raise TraceFormatError(
            f"bad {what} {field!r} (expected a decimal or 0x-hex number)",
            path=path, line=line_number,
        ) from None


def iter_champsim(path: PathLike) -> Iterator[MemoryAccess]:
    """Stream a ChampSim-style text trace (see the module docstring)."""
    timestamp = 0
    with trace_io.open_text(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if not 3 <= len(parts) <= 5:
                raise TraceFormatError(
                    f"malformed ChampSim-style line (expected 3-5 fields, "
                    f"got {len(parts)}): {line!r}", path=path,
                    line=line_number,
                )
            pc = _parse_hex(parts[0], "pc", path, line_number)
            address = _parse_hex(parts[1], "address", path, line_number)
            access_type = _CHAMPSIM_TYPES.get(parts[2])
            if access_type is None:
                raise TraceFormatError(
                    f"unknown access type {parts[2]!r} (expected R/W, L/S, "
                    f"or 0/1)", path=path, line=line_number,
                )
            core_id = (_parse_int(parts[3], "core", path, line_number)
                       if len(parts) >= 4 else 0)
            if len(parts) == 5:
                timestamp = _parse_int(parts[4], "cycle", path, line_number)
            try:
                access = MemoryAccess(
                    address=address, pc=pc, access_type=access_type,
                    core_id=core_id, timestamp=timestamp,
                )
            except ValueError as exc:
                raise TraceFormatError(str(exc), path=path,
                                       line=line_number) from None
            yield access
            timestamp += 1


def iter_csv(path: PathLike) -> Iterator[MemoryAccess]:
    """Stream a CSV trace with a header row (see the module docstring)."""
    with trace_io.open_text(path, "r") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return
        columns = {name.strip().lower(): index
                   for index, name in enumerate(header)}
        if "address" not in columns:
            raise TraceFormatError(
                f"CSV trace needs an 'address' column; header has "
                f"{[name.strip() for name in header]}", path=path, line=1,
            )
        address_col = columns["address"]
        pc_col = columns.get("pc")
        type_col = columns.get("type")
        core_col = columns.get("core")
        timestamp_col = columns.get("timestamp")
        auto_timestamp = 0
        for line_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                cells = {
                    "address": row[address_col],
                    "pc": row[pc_col] if pc_col is not None else "0",
                    "type": row[type_col] if type_col is not None else "R",
                    "core": row[core_col] if core_col is not None else "0",
                    "timestamp": (row[timestamp_col]
                                  if timestamp_col is not None else ""),
                }
            except IndexError:
                raise TraceFormatError(
                    f"row has {len(row)} cells but the header names "
                    f"{len(header)} columns", path=path, line=line_number,
                ) from None
            access_type = _CSV_TYPES.get(cells["type"].strip())
            if access_type is None:
                raise TraceFormatError(
                    f"unknown access type {cells['type']!r}", path=path,
                    line=line_number,
                )
            if cells["timestamp"].strip():
                timestamp = _parse_int(cells["timestamp"], "timestamp",
                                       path, line_number)
            else:
                timestamp = auto_timestamp
            try:
                access = MemoryAccess(
                    address=_parse_int(cells["address"], "address", path,
                                       line_number),
                    pc=_parse_int(cells["pc"], "pc", path, line_number),
                    access_type=access_type,
                    core_id=_parse_int(cells["core"], "core", path,
                                       line_number),
                    timestamp=timestamp,
                )
            except TraceFormatError:
                raise
            except ValueError as exc:
                raise TraceFormatError(str(exc), path=path,
                                       line=line_number) from None
            yield access
            auto_timestamp += 1


# --------------------------------------------------------------------- #
# gem5 --debug-flags=MemoryAccess dumps
# --------------------------------------------------------------------- #
#: ``tick: path.to.object: rest`` -- the shape of every gem5 DPRINTF line.
_GEM5_LINE = re.compile(r"^\s*(\d+)\s*:\s*(\S+?):\s*(.*)$")
#: The address operand: ``address 0x2a``, ``addr=0x2a``, ``Addr 42``, ...
_GEM5_ADDR = re.compile(r"\b(?:address|addr)[ =:]+(0x[0-9a-fA-F]+|\d+)\b",
                        re.IGNORECASE)
#: Optional program counter some CPU debug flags include.
_GEM5_PC = re.compile(r"\bpc[ =:]+(0x[0-9a-fA-F]+|\d+)\b", re.IGNORECASE)
#: ``cpu3`` (or ``cpu03``) component of the object path names the core.
_GEM5_CPU = re.compile(r"\bcpu(\d+)\b", re.IGNORECASE)

#: First word of the line body -> access type.  Covers the plain
#: AbstractMemory verbs ("Read"/"Write") and the *request* packet-command
#: spellings cache/port debug flags print.  Response commands (ReadResp,
#: WriteResp) are deliberately absent: a dump logging both sides of a
#: transaction must not count it twice.
_GEM5_VERBS = {
    "read": AccessType.READ,
    "readreq": AccessType.READ,
    "readex": AccessType.READ,
    "readexreq": AccessType.READ,
    "readsharedreq": AccessType.READ,
    "readcleanreq": AccessType.READ,
    "ifetch": AccessType.READ,
    "swap": AccessType.WRITE,
    "write": AccessType.WRITE,
    "writereq": AccessType.WRITE,
    "writeline": AccessType.WRITE,
    "writelinereq": AccessType.WRITE,
    "writeback": AccessType.WRITE,
    "writebackdirty": AccessType.WRITE,
    "writebackclean": AccessType.WRITE,
}


def iter_gem5(path: PathLike) -> Iterator[MemoryAccess]:
    """Stream a gem5 ``--debug-flags=MemoryAccess`` text dump.

    Lines that do not parse as a memory access (other debug flags, stats
    banners, warnings) are skipped; a dump that contains no access at all is
    rejected so a wrong file does not silently become an empty trace.
    """
    count = 0
    with trace_io.open_text(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            match = _GEM5_LINE.match(line)
            if match is None:
                continue
            tick, source, body = match.groups()
            verb = body.split(None, 1)[0] if body else ""
            access_type = _GEM5_VERBS.get(verb.rstrip(":").lower())
            if access_type is None:
                continue
            addr_match = _GEM5_ADDR.search(body)
            if addr_match is None:
                continue
            pc_match = _GEM5_PC.search(body)
            cpu_match = _GEM5_CPU.search(source)
            try:
                access = MemoryAccess(
                    address=int(addr_match.group(1), 0),
                    pc=int(pc_match.group(1), 0) if pc_match else 0,
                    access_type=access_type,
                    core_id=int(cpu_match.group(1)) if cpu_match else 0,
                    timestamp=int(tick),
                )
            except ValueError as exc:
                raise TraceFormatError(str(exc), path=path,
                                       line=line_number) from None
            yield access
            count += 1
    if count == 0:
        raise TraceFormatError(
            "no memory accesses found; expected gem5 --debug-flags="
            "MemoryAccess output (tick: object: Read/Write ... address ...)",
            path=path,
        )


# --------------------------------------------------------------------- #
# Format registry
# --------------------------------------------------------------------- #
Reader = Callable[[PathLike], Iterable[MemoryAccess]]
#: Writers take ``(path, accesses, num_cores)``; formats without core-count
#: metadata (text) simply ignore the last argument.
Writer = Callable[[PathLike, Iterable[MemoryAccess], int], int]


@dataclass(frozen=True)
class TraceFormat:
    """One entry of the trace-format registry."""

    name: str
    description: str
    reader: Reader
    #: ``None`` for read-only (ingestion) formats.
    writer: Optional[Writer] = None
    suffixes: "tuple[str, ...]" = ()

    @property
    def writable(self) -> bool:
        return self.writer is not None


def _write_text(path: PathLike, accesses: Iterable[MemoryAccess],
                num_cores: int = 0) -> int:
    return trace_io.write_trace(path, accesses)


def _write_binary(path: PathLike, accesses: Iterable[MemoryAccess],
                  num_cores: int = 0) -> int:
    return binfmt.write_trace_bin(path, accesses, num_cores=num_cores)


FORMATS: Dict[str, TraceFormat] = {
    fmt.name: fmt for fmt in (
        TraceFormat(
            name="binary",
            description="repro struct-packed binary (gzip payload)",
            reader=lambda path: binfmt.BinaryTraceReader(path),
            writer=_write_binary,
            suffixes=(".rptr", ".bin"),
        ),
        TraceFormat(
            name="text",
            description="repro line-oriented text",
            reader=lambda path: trace_io.TraceReader(path),
            writer=_write_text,
            suffixes=(".trace", ".txt"),
        ),
        TraceFormat(
            name="champsim",
            description="ChampSim-style text (pc address type [core [cycle]])",
            reader=iter_champsim,
            suffixes=(".champsim", ".champsimtrace"),
        ),
        TraceFormat(
            name="csv",
            description="CSV with a header row (address[,pc,type,core,timestamp])",
            reader=iter_csv,
            suffixes=(".csv",),
        ),
        TraceFormat(
            name="gem5",
            description="gem5 --debug-flags=MemoryAccess text dump",
            reader=iter_gem5,
            suffixes=(".gem5",),
        ),
    )
}


def detect_format(path: PathLike) -> str:
    """Name the trace format of ``path`` by magic bytes, then by suffix.

    Binary traces are recognized by their magic regardless of name; for
    everything else the (gzip-stripped) suffix decides, with plain text as
    the fallback.
    """
    path = Path(path)
    if path.exists() and binfmt.is_binary_trace(path):
        return "binary"
    suffixes = [s.lower() for s in path.suffixes if s.lower() != ".gz"]
    suffix = suffixes[-1] if suffixes else ""
    for fmt in FORMATS.values():
        if suffix in fmt.suffixes:
            return fmt.name
    return "text"


def resolve_format(name: Optional[str], path: PathLike,
                   for_writing: bool = False) -> TraceFormat:
    """Look up a format by explicit ``name``, or detect it from ``path``."""
    if name is None or name == "auto":
        name = detect_format(path)
    try:
        fmt = FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace format {name!r}; known: {sorted(FORMATS)}"
        ) from None
    if for_writing and not fmt.writable:
        raise ValueError(
            f"trace format {fmt.name!r} is ingestion-only (cannot write); "
            f"writable formats: "
            f"{sorted(f.name for f in FORMATS.values() if f.writable)}"
        )
    return fmt


def open_trace(path: PathLike,
               fmt: Optional[str] = None) -> Iterable[MemoryAccess]:
    """An iterable over the accesses of ``path`` in any readable format."""
    return resolve_format(fmt, path).reader(path)


def convert_trace(src: PathLike, dst: PathLike,
                  in_format: Optional[str] = None,
                  out_format: Optional[str] = None,
                  limit: Optional[int] = None,
                  codec: Optional[str] = None) -> int:
    """Stream ``src`` into ``dst``, converting formats; returns the count.

    Formats default to auto-detection (by magic, then suffix).  ``limit``
    truncates the output to the first N accesses; nothing past them is
    read, and a negative limit is a :class:`ValueError`.  A binary source's core
    count carries over into a binary destination's header.  ``codec``
    selects the binary payload codec (:data:`repro.trace.binfmt.CODECS`) and
    is rejected for non-binary destinations.  ``dst`` appears only once the
    conversion is complete: a source that turns malformed mid-stream leaves
    no partial file, and any earlier ``dst`` untouched.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    fmt_in = resolve_format(in_format, src)
    fmt_out = resolve_format(out_format, dst, for_writing=True)
    if codec is not None and fmt_out.name != "binary":
        raise ValueError(
            f"--codec applies only to binary output, not {fmt_out.name!r}"
        )
    num_cores = (binfmt.read_header(src).num_cores
                 if fmt_in.name == "binary" else 0)
    stream: Iterable[MemoryAccess] = fmt_in.reader(src)
    if limit is not None:
        stream = islice(stream, limit)
    # A temporary sibling, renamed into place; its name keeps ``dst``'s
    # suffixes, which select the text writer's compression.
    dst = Path(dst)
    tmp = dst.with_name(f".tmp{os.getpid()}-{dst.name}")
    try:
        if codec is not None:
            count = binfmt.write_trace_bin(tmp, stream, num_cores=num_cores,
                                           codec=codec)
        else:
            count = fmt_out.writer(tmp, stream, num_cores)
        os.replace(tmp, dst)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


__all__ = [
    "FORMATS",
    "TraceFormat",
    "convert_trace",
    "detect_format",
    "iter_champsim",
    "iter_csv",
    "iter_gem5",
    "open_trace",
    "resolve_format",
]
