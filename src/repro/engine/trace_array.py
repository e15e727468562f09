"""Packed record arrays: the one in-memory trace, and its kernel columns.

The binary trace format (:mod:`repro.trace.binfmt`) packs each access into a
27-byte little-endian struct, and :data:`RECORD_DTYPE` is a numpy structured
dtype laid out *exactly* like it.  An array of it is therefore the packed
payload itself: the trace store hands sweeps such arrays
(``np.frombuffer`` over the decompressed payload, no per-record work),
the window providers slice them without copying, and
:func:`make_columns` turns a slice into the column lists the fused kernels
loop over.  :class:`~repro.trace.record.MemoryAccess` records are built
only where a caller asks for records: the scalar engine
(:func:`as_records`), the one-request ``access`` API, and the trace readers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.trace.binfmt import RECORD_DTYPE, is_record_array
from repro.trace.record import AccessType, MemoryAccess

_TYPE_FROM_CODE = (AccessType.READ, AccessType.WRITE)

#: True if an object is a :data:`RECORD_DTYPE` array.
is_access_array = is_record_array


def decode_array(blob) -> np.ndarray:
    """Decode packed 27-byte records into a structured array (zero copy).

    ``blob`` is any buffer whose length is a multiple of the record size
    (bytes, bytearray, memoryview).  One ``np.frombuffer`` replaces the
    per-record ``Struct.iter_unpack`` + ``tuple.__new__`` loop.
    """
    return np.frombuffer(blob, dtype=RECORD_DTYPE)


def records_to_array(records: Sequence[MemoryAccess]) -> np.ndarray:
    """Pack a sequence of :class:`MemoryAccess` into a structured array."""
    arr = np.empty(len(records), dtype=RECORD_DTYPE)
    if len(records):
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
    from the record decode path.
    """
    tuple_new = tuple.__new__
    cls = MemoryAccess
    types = _TYPE_FROM_CODE
    return [
        tuple_new(cls, (r[0], r[1], types[r[4]], r[3], r[2]))
        for r in arr.tolist()
    ]


class AccessColumns:
    """Column-oriented view of one batch, ready for the fused kernels.

    Columns are plain Python lists (the kernels are fused Python loops over
    C-speed list iteration); when the source is a structured array the
    extraction itself is vectorized, and so are the predictor index hashes.
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
    def _vector(self, field: str, column: List[int]) -> np.ndarray:
        """One record field as a uint64 array."""
        if self._arr is not None:
            return self._arr[field]
        return np.array(column, dtype=np.uint64)

    def way_indices(self, blocks_per_page: int, index_bits: int) -> List[int]:
        """``fold_xor(page, index_bits)`` for every access (way predictor)."""
        pages = self._vector("address", self.addr) >> np.uint64(6)
        pages //= np.uint64(blocks_per_page)
        return _fold_xor_vector_array(pages, index_bits).tolist()

    def mapi_indices(self, index_bits: int, entries_per_core: int) -> List[int]:
        """``fold_xor(pc >> 2, bits) % entries`` for every access (MAP-I)."""
        values = self._vector("pc", self.pc) >> np.uint64(2)
        folded = _fold_xor_vector_array(values, index_bits)
        return (folded % np.uint64(entries_per_core)).tolist()


def _fold_xor_vector_array(values: np.ndarray, index_bits: int) -> np.ndarray:
    """Vectorized :func:`repro.utils.hashing.fold_xor` over a uint64 array."""
    mask = np.uint64((1 << index_bits) - 1)
    folded = np.zeros(values.shape, dtype=np.uint64)
    for shift in range(0, 64, index_bits):
        folded ^= (values >> np.uint64(shift)) & mask
    return folded


def make_columns(accesses) -> Optional[AccessColumns]:
    """Build :class:`AccessColumns` from an array or a record sequence.

    Accepts a structured array (what sweeps replay), any sequence of
    :class:`MemoryAccess` (what API callers may pass), or an arbitrary
    iterable of records (which is materialised).  Returns ``None`` only for
    inputs it cannot interpret.
    """
    if is_access_array(accesses):
        arr = accesses
        addr = arr["address"].tolist()
        blk = (arr["address"] >> np.uint64(6)).tolist()
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
    "records_to_array",
]
