"""Bulk trace decode: packed records <-> numpy structured arrays.

The binary trace format (:mod:`repro.trace.binfmt`) packs each access into a
27-byte little-endian struct.  The scalar decode path materialises one
:class:`~repro.trace.record.MemoryAccess` namedtuple per record; for the
functional-warming hot path that per-record ``tuple.__new__`` dominates the
load time.  This module provides the vectorized alternative: a numpy
structured dtype laid out *exactly* like the packed record, so a whole
chunk decodes with a single ``np.frombuffer`` -- no per-record Python work
at all.

numpy is an optional dependency.  Everything degrades gracefully without
it: :func:`numpy_available` gates the callers, and :func:`require_numpy`
raises an error that names the ``--batch-warming`` flag and the
``REPRO_BATCH`` variable so the remedy is obvious.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.trace.record import AccessType, MemoryAccess
from repro.utils.hashing import fold_xor

try:  # pragma: no cover - exercised via numpy_available() in tests
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None


#: Structured dtype mirroring ``binfmt.RECORD`` (``<QQQHB``, 27 bytes):
#: address u64 | pc u64 | timestamp u64 | core_id u16 | access_type u8.
RECORD_DTYPE = None
if _np is not None:
    RECORD_DTYPE = _np.dtype({
        "names": ["address", "pc", "timestamp", "core_id", "access_type"],
        "formats": ["<u8", "<u8", "<u8", "<u2", "u1"],
        "offsets": [0, 8, 16, 24, 26],
        "itemsize": 27,
    })

_TYPE_FROM_CODE = (AccessType.READ, AccessType.WRITE)


def numpy_available() -> bool:
    """True when numpy is importable (the batch decode paths work)."""
    return _np is not None


def require_numpy(context: str) -> None:
    """Raise a clear error when numpy is missing.

    The message names the batch-warming controls so a user who asked for
    array decoding explicitly knows how to fall back.
    """
    if _np is None:
        raise RuntimeError(
            f"{context} requires numpy, which is not installed; install "
            "numpy, or stay on the scalar path (--no-batch-warming / "
            "REPRO_BATCH=0), which needs no extra dependencies"
        )


def is_access_array(obj) -> bool:
    """True if ``obj`` is a numpy structured array of trace records."""
    return (_np is not None and isinstance(obj, _np.ndarray)
            and obj.dtype == RECORD_DTYPE)


def decode_array(blob) -> "object":
    """Decode packed 27-byte records into a structured array (zero copy).

    ``blob`` is any buffer whose length is a multiple of the record size
    (bytes, bytearray, memoryview).  One ``np.frombuffer`` replaces the
    per-record ``Struct.iter_unpack`` + ``tuple.__new__`` loop.
    """
    require_numpy("bulk record decode")
    return _np.frombuffer(blob, dtype=RECORD_DTYPE)


def records_to_array(records: Sequence[MemoryAccess]) -> "object":
    """Pack a sequence of :class:`MemoryAccess` into a structured array."""
    require_numpy("record-to-array conversion")
    arr = _np.empty(len(records), dtype=RECORD_DTYPE)
    if records:
        arr["address"] = [r.address for r in records]
        arr["pc"] = [r.pc for r in records]
        arr["timestamp"] = [r.timestamp for r in records]
        arr["core_id"] = [r.core_id for r in records]
        arr["access_type"] = [
            1 if r.access_type is AccessType.WRITE else 0 for r in records
        ]
    return arr


def array_to_records(arr) -> List[MemoryAccess]:
    """Expand a structured array back into :class:`MemoryAccess` records.

    Mirrors ``binfmt._decode_records`` so the result is indistinguishable
    from the scalar decode path.
    """
    tuple_new = tuple.__new__
    cls = MemoryAccess
    types = _TYPE_FROM_CODE
    return [
        tuple_new(cls, (r[0], r[1], types[r[4]], r[3], r[2]))
        for r in arr.tolist()
    ]


class AccessColumns:
    """Column-oriented view of one warm batch, ready for the fused kernels.

    Columns are plain Python lists (the kernels are fused Python loops over
    C-speed list iteration); when the source is a structured array the
    extraction itself is vectorized.  The predictor index hashes are
    vectorized whenever numpy is present.
    """

    __slots__ = ("n", "addr", "blk", "pc", "wr", "core", "_arr")

    def __init__(self, n: int, addr: List[int], blk: List[int],
                 pc: List[int], wr: List[bool], core: List[int],
                 arr=None) -> None:
        self.n = n
        self.addr = addr
        self.blk = blk
        self.pc = pc
        self.wr = wr
        self.core = core
        self._arr = arr

    # ------------------------------------------------------------------ #
    def _vector(self, field: str, column: List[int]):
        """One record field as a uint64 array."""
        if self._arr is not None:
            return self._arr[field]
        return _np.array(column, dtype=_np.uint64)

    def way_indices(self, blocks_per_page: int, index_bits: int) -> List[int]:
        """``fold_xor(page, index_bits)`` for every access (way predictor)."""
        if _np is None:
            return [fold_xor(block // blocks_per_page, index_bits)
                    for block in self.blk]
        pages = self._vector("address", self.addr) >> _np.uint64(6)
        pages //= _np.uint64(blocks_per_page)
        return _fold_xor_vector_array(pages, index_bits).tolist()

    def mapi_indices(self, index_bits: int, entries_per_core: int) -> List[int]:
        """``fold_xor(pc >> 2, bits) % entries`` for every access (MAP-I)."""
        if _np is None:
            return [fold_xor(pc >> 2, index_bits) % entries_per_core
                    for pc in self.pc]
        values = self._vector("pc", self.pc) >> _np.uint64(2)
        folded = _fold_xor_vector_array(values, index_bits)
        return (folded % _np.uint64(entries_per_core)).tolist()


def _fold_xor_vector_array(values, index_bits: int):
    """Vectorized :func:`repro.utils.hashing.fold_xor` over a uint64 array."""
    mask = _np.uint64((1 << index_bits) - 1)
    folded = _np.zeros(values.shape, dtype=_np.uint64)
    for shift in range(0, 64, index_bits):
        folded ^= (values >> _np.uint64(shift)) & mask
    return folded


def make_columns(accesses) -> Optional[AccessColumns]:
    """Build :class:`AccessColumns` from an array or a record sequence.

    Accepts a structured array (the bulk-decoded fast path), any sequence
    of :class:`MemoryAccess`, or an arbitrary iterable of records (which is
    materialised).  Returns ``None`` only for inputs it cannot interpret.
    """
    if is_access_array(accesses):
        arr = accesses
        addr = arr["address"].tolist()
        blk = (arr["address"] >> _np.uint64(6)).tolist()
        pc = arr["pc"].tolist()
        wr = (arr["access_type"] != 0).tolist()
        core = arr["core_id"].tolist()
        return AccessColumns(len(addr), addr, blk, pc, wr, core, arr)
    if not isinstance(accesses, (list, tuple)):
        accesses = list(accesses)
    if not accesses:
        return AccessColumns(0, [], [], [], [], [], None)
    first = accesses[0]
    if not isinstance(first, MemoryAccess):
        return None
    addr, pc, types, core, _ = (list(col) for col in zip(*accesses))
    write = AccessType.WRITE
    wr = [t is write for t in types]
    blk = [a >> 6 for a in addr]
    return AccessColumns(len(addr), addr, blk, pc, wr, core, None)


def as_records(accesses):
    """Coerce ``accesses`` to something ``warm_up`` (scalar) can replay."""
    if is_access_array(accesses):
        return array_to_records(accesses)
    return accesses


__all__ = [
    "AccessColumns",
    "RECORD_DTYPE",
    "array_to_records",
    "as_records",
    "decode_array",
    "is_access_array",
    "make_columns",
    "numpy_available",
    "records_to_array",
    "require_numpy",
]
