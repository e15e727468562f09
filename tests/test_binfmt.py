"""Tests for the struct-packed binary trace format."""

import gzip
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.binfmt import (
    DEFAULT_CHUNK_RECORDS,
    HEADER,
    MAGIC,
    UNKNOWN_COUNT,
    VERSION,
    BinaryTraceReader,
    BinaryTraceWriter,
    is_binary_trace,
    read_header,
    read_trace_bin,
    write_trace_bin,
)
from repro.trace.errors import TraceFormatError
from repro.trace.io import read_trace, write_trace
from repro.trace.record import AccessType, MemoryAccess


def sample_trace(n, cores=4):
    return [
        MemoryAccess(address=i * 64 + (i % 7), pc=0x400000 + i * 4,
                     core_id=i % cores, timestamp=i,
                     access_type=AccessType.WRITE if i % 3 == 0
                     else AccessType.READ)
        for i in range(n)
    ]


class TestRecordArrays:
    """A packed record array writes the bytes the equal records write."""

    @pytest.mark.parametrize("codec", ["none", "gzip"])
    def test_write_trace_bin_accepts_an_array(self, tmp_path, codec):
        from repro.engine.trace_array import records_to_array

        trace = sample_trace(DEFAULT_CHUNK_RECORDS + 300)
        records = tmp_path / "records.rptr"
        packed = tmp_path / "packed.rptr"
        assert write_trace_bin(records, trace, num_cores=4, codec=codec) \
            == len(trace)
        assert write_trace_bin(packed, records_to_array(trace), num_cores=4,
                               codec=codec) == len(trace)
        assert packed.read_bytes() == records.read_bytes()

    def test_arrays_and_records_mix_across_chunk_boundaries(self, tmp_path):
        from repro.engine.trace_array import records_to_array

        trace = sample_trace(2 * DEFAULT_CHUNK_RECORDS + 50)
        reference = tmp_path / "reference.rptr"
        mixed = tmp_path / "mixed.rptr"
        write_trace_bin(reference, trace, codec="gzip")
        cut_a, cut_b = 1000, DEFAULT_CHUNK_RECORDS + 7
        with BinaryTraceWriter(mixed, codec="gzip") as writer:
            writer.write_all(trace[:cut_a])
            writer.write_all(records_to_array(trace[cut_a:cut_b]))
            writer.write(trace[cut_b])
            writer.write_all(records_to_array(trace[cut_b + 1:]))
            assert writer.count == len(trace)
        assert mixed.read_bytes() == reference.read_bytes()

    def test_read_all_array_matches_read_all(self, tmp_path):
        from repro.engine.trace_array import array_to_records

        trace = sample_trace(500)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace)
        array = BinaryTraceReader(path).read_all_array()
        assert array_to_records(array) == trace == read_trace_bin(path)


class TestRoundTrip:
    @pytest.mark.parametrize("compressed", [True, False])
    def test_round_trip(self, tmp_path, compressed):
        trace = sample_trace(1000)
        path = tmp_path / "t.rptr"
        count = write_trace_bin(path, trace, num_cores=4,
                                codec="gzip" if compressed else "none")
        assert count == 1000
        assert read_trace_bin(path) == trace

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rptr"
        assert write_trace_bin(path, []) == 0
        assert read_trace_bin(path) == []
        assert read_header(path).access_count == 0

    def test_large_addresses(self, tmp_path):
        trace = [
            MemoryAccess(address=2 ** 32 + 1, pc=2 ** 48 + 3,
                         timestamp=2 ** 40),
            MemoryAccess(address=2 ** 63, pc=0, core_id=65535),
        ]
        path = tmp_path / "big.rptr"
        write_trace_bin(path, trace)
        assert read_trace_bin(path) == trace

    def test_multi_core_interleave_preserved(self, tmp_path):
        trace = sample_trace(500, cores=16)
        path = tmp_path / "cores.rptr"
        write_trace_bin(path, trace, num_cores=16)
        loaded = read_trace_bin(path)
        assert [a.core_id for a in loaded] == [a.core_id for a in trace]
        assert read_header(path).num_cores == 16

    def test_binary_text_binary_equivalence(self, tmp_path):
        trace = sample_trace(300)
        bin_path = tmp_path / "a.rptr"
        text_path = tmp_path / "a.trace"
        write_trace_bin(bin_path, trace)
        write_trace(text_path, read_trace_bin(bin_path))
        assert read_trace(text_path) == trace

    @settings(max_examples=25, deadline=None)
    @given(accesses=st.lists(
        st.builds(
            MemoryAccess,
            address=st.integers(0, 2 ** 64 - 1),
            pc=st.integers(0, 2 ** 64 - 1),
            access_type=st.sampled_from(list(AccessType)),
            core_id=st.integers(0, 2 ** 16 - 1),
            timestamp=st.integers(0, 2 ** 64 - 1),
        ),
        max_size=50,
    ))
    def test_property_round_trip(self, tmp_path_factory, accesses):
        path = tmp_path_factory.mktemp("prop") / "t.rptr"
        write_trace_bin(path, accesses)
        assert read_trace_bin(path) == accesses


class TestHeader:
    def test_header_fields(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(42), num_cores=8)
        info = read_header(path)
        assert info.version == VERSION
        assert info.codec == "gzip"
        assert info.num_cores == 8
        assert info.access_count == 42
        assert info.file_bytes == path.stat().st_size

    def test_header_is_uncompressed(self, tmp_path):
        """``trace info`` must work without decompressing the payload."""
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(10), codec="gzip")
        with path.open("rb") as handle:
            assert handle.read(4) == MAGIC

    def test_is_binary_trace(self, tmp_path):
        bin_path = tmp_path / "t.rptr"
        write_trace_bin(bin_path, [])
        text_path = tmp_path / "t.trace"
        write_trace(text_path, [])
        assert is_binary_trace(bin_path)
        assert not is_binary_trace(text_path)
        assert not is_binary_trace(tmp_path / "missing.rptr")

    def test_unknown_count_sentinel(self, tmp_path):
        path = tmp_path / "t.rptr"
        payload = gzip.compress(b"")
        path.write_bytes(
            HEADER.pack(MAGIC, VERSION, 1, 0, UNKNOWN_COUNT) + payload
        )
        assert read_header(path).access_count is None


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rptr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_header(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rptr"
        path.write_bytes(MAGIC)
        with pytest.raises(TraceFormatError, match="too short"):
            read_header(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.rptr"
        path.write_bytes(HEADER.pack(MAGIC, VERSION + 1, 0, 0, 0))
        with pytest.raises(TraceFormatError, match="version"):
            read_header(path)

    @pytest.mark.parametrize("flags", [0x0002, 0x0004])
    def test_unknown_flag_bits_rejected(self, tmp_path, flags):
        path = tmp_path / "flags.rptr"
        write_trace_bin(path, sample_trace(10), codec="none")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 6, flags)
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError,
                           match=f"unknown header flag bits 0x{flags:04x}"):
            read_header(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.rptr"
        write_trace_bin(path, sample_trace(10), codec="none")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])  # cut into the last record
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace_bin(path)

    def test_error_is_value_error(self):
        assert issubclass(TraceFormatError, ValueError)

    def test_unrepresentable_core_id(self, tmp_path):
        access = MemoryAccess(address=0, pc=0, core_id=2 ** 16)
        with pytest.raises(TraceFormatError, match="core_id"):
            write_trace_bin(tmp_path / "x.rptr", [access])

    def test_negative_timestamp_rejected_cleanly(self, tmp_path):
        # MemoryAccess never validates timestamps, so the writer must:
        # struct.error would otherwise escape as an unhandled crash.
        access = MemoryAccess(address=0, pc=0, timestamp=-1)
        with pytest.raises(TraceFormatError, match="64-bit"):
            write_trace_bin(tmp_path / "x.rptr", [access])

    def test_aborted_write_leaves_unfinalized_header(self, tmp_path):
        """An exception mid-stream must not produce a valid-looking file."""
        path = tmp_path / "aborted.rptr"
        with pytest.raises(RuntimeError, match="boom"):
            with BinaryTraceWriter(path) as writer:
                writer.write(MemoryAccess(address=0, pc=0))
                raise RuntimeError("boom")
        assert read_header(path).access_count is None  # UNKNOWN_COUNT kept

    def test_writer_requires_context_manager(self, tmp_path):
        writer = BinaryTraceWriter(tmp_path / "x.rptr")
        with pytest.raises(RuntimeError):
            writer.write(MemoryAccess(address=0, pc=0))


class TestStreaming:
    def test_iter_chunks_sizes(self, tmp_path):
        trace = sample_trace(1000)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace)
        chunks = list(BinaryTraceReader(path).iter_chunks(chunk_records=256))
        assert [len(c) for c in chunks] == [256, 256, 256, 232]
        assert [a for c in chunks for a in c] == trace

    def test_reader_is_reiterable(self, tmp_path):
        trace = sample_trace(100)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace)
        reader = BinaryTraceReader(path)
        assert list(reader) == list(reader) == trace

    def test_streaming_write_from_generator(self, tmp_path):
        """The writer never needs the trace materialized."""
        path = tmp_path / "gen.rptr"
        count = write_trace_bin(
            path, (MemoryAccess(address=i, pc=0) for i in range(50_000))
        )
        assert count == 50_000
        assert read_header(path).access_count == 50_000

    def test_record_layout_is_stable(self):
        """The on-disk record layout is a compatibility contract."""
        from repro.trace.binfmt import RECORD

        assert RECORD.format == "<QQQHB"
        assert RECORD.size == 27
        assert struct.calcsize("<4sHHIQ") == HEADER.size == 20
