"""Tests for trace records and trace file I/O."""

import pytest
from hypothesis import given, strategies as st

from repro.trace.errors import TraceFormatError
from repro.trace.io import format_access, parse_access, read_trace, write_trace
from repro.trace.record import BLOCK_SIZE, AccessType, MemoryAccess


class TestMemoryAccess:
    def test_block_address(self):
        access = MemoryAccess(address=130, pc=0x400000)
        assert access.block_address == 2

    def test_block_aligned(self):
        access = MemoryAccess(address=130, pc=0x400000)
        aligned = access.block_aligned()
        assert aligned.address == 128
        assert aligned.pc == access.pc

    def test_block_aligned_noop_when_aligned(self):
        access = MemoryAccess(address=128, pc=0x400000)
        assert access.block_aligned() is access

    def test_page_number_and_offset(self):
        access = MemoryAccess(address=5000, pc=0)
        assert access.page_number(4096) == 1
        assert access.page_offset_blocks(4096) == (5000 - 4096) // BLOCK_SIZE

    def test_page_offset_requires_block_multiple(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=0, pc=0).page_offset_blocks(100)

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=0, pc=0).page_number(0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=-1, pc=0)

    def test_negative_core_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=0, pc=0, core_id=-1)

    def test_is_write(self):
        read = MemoryAccess(address=0, pc=0, access_type=AccessType.READ)
        write = MemoryAccess(address=0, pc=0, access_type=AccessType.WRITE)
        assert not read.is_write
        assert write.is_write


class TestTraceIo:
    def test_format_parse_round_trip(self):
        access = MemoryAccess(address=0x1234, pc=0x400010,
                              access_type=AccessType.WRITE, core_id=3,
                              timestamp=42)
        assert parse_access(format_access(access)) == access

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_access("1 2 R 0x10")

    def test_parse_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            parse_access("1 2 X 0x10 0x20")

    def test_file_round_trip(self, tmp_path):
        accesses = [
            MemoryAccess(address=i * 64, pc=0x400000 + i * 4, core_id=i % 4,
                         timestamp=i,
                         access_type=AccessType.WRITE if i % 3 == 0 else AccessType.READ)
            for i in range(50)
        ]
        path = tmp_path / "trace.txt"
        count = write_trace(path, accesses)
        assert count == 50
        assert read_trace(path) == accesses

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n0 0 R 0x400000 0x80\n")
        loaded = read_trace(path)
        assert len(loaded) == 1
        assert loaded[0].address == 0x80

    def test_writer_requires_context_manager(self, tmp_path):
        from repro.trace.io import TraceWriter

        writer = TraceWriter(tmp_path / "x.txt")
        with pytest.raises(RuntimeError):
            writer.write(MemoryAccess(address=0, pc=0))

    def test_lowercase_type_codes_accepted(self):
        read = parse_access("1 2 r 0x10 0x20")
        write = parse_access("1 2 w 0x10 0x20")
        assert read.access_type is AccessType.READ
        assert write.access_type is AccessType.WRITE

    def test_trailing_whitespace_and_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 0 R 0x400000 0x80   \n\n   \n0 1 w 0x400004 0xc0\t\n")
        loaded = read_trace(path)
        assert len(loaded) == 2
        assert loaded[1].core_id == 1

    def test_malformed_line_reports_file_and_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n0 0 R 0x400000 0x80\n0 0 R 0x10\n")
        with pytest.raises(TraceFormatError) as exc_info:
            read_trace(path)
        error = exc_info.value
        assert error.line == 3
        assert error.path == str(path)
        assert f"{path}:3:" in str(error)

    def test_unknown_code_reports_file_and_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 0 X 0x400000 0x80\n")
        with pytest.raises(TraceFormatError) as exc_info:
            read_trace(path)
        assert exc_info.value.line == 1

    def test_bad_number_field_raises_trace_format_error(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("zero 0 R 0x400000 0x80\n")
        with pytest.raises(TraceFormatError, match="bad field"):
            read_trace(path)

    def test_trace_format_error_is_value_error(self):
        # Backwards compatibility: pre-existing callers catch ValueError.
        with pytest.raises(ValueError):
            parse_access("garbage")

    def test_gzip_round_trip(self, tmp_path):
        accesses = [MemoryAccess(address=i * 64, pc=i) for i in range(20)]
        path = tmp_path / "trace.txt.gz"
        assert write_trace(path, accesses) == 20
        import gzip

        with gzip.open(path, "rt") as handle:  # really gzip on disk
            assert handle.readline().startswith("#")
        assert read_trace(path) == accesses

    @given(accesses=st.lists(
        st.builds(
            MemoryAccess,
            address=st.integers(0, 2 ** 40),
            pc=st.integers(0, 2 ** 48),
            access_type=st.sampled_from(list(AccessType)),
            core_id=st.integers(0, 15),
            timestamp=st.integers(0, 2 ** 32),
        ),
        max_size=30,
    ))
    def test_property_line_round_trip(self, accesses):
        for access in accesses:
            assert parse_access(format_access(access)) == access
