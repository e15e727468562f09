"""Tests for external-format ingestion (ChampSim, CSV, gem5) and conversion."""

import gzip

import pytest

from repro.trace.adapters import (
    FORMATS,
    convert_trace,
    detect_format,
    iter_champsim,
    iter_csv,
    iter_gem5,
    open_trace,
)
from repro.trace.binfmt import read_trace_bin, write_trace_bin
from repro.trace.errors import TraceFormatError
from repro.trace.record import AccessType, MemoryAccess


class TestChampSim:
    def test_basic_lines(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_text(
            "# comment\n"
            "0x400000 0x1000 R\n"
            "400004 2000 W\n"          # hex without 0x prefix
            "400008 3000 L 2\n"        # load + core column
            "40000c 4000 S 3 77\n"     # store + core + cycle
        )
        accesses = list(iter_champsim(path))
        assert [a.pc for a in accesses] == [0x400000, 0x400004, 0x400008,
                                            0x40000C]
        assert [a.address for a in accesses] == [0x1000, 0x2000, 0x3000,
                                                 0x4000]
        assert [a.access_type for a in accesses] == [
            AccessType.READ, AccessType.WRITE, AccessType.READ,
            AccessType.WRITE,
        ]
        assert [a.core_id for a in accesses] == [0, 0, 2, 3]
        # auto-increment, then the explicit cycle column takes over
        assert [a.timestamp for a in accesses] == [0, 1, 2, 77]

    def test_timestamps_resume_after_explicit_cycle(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_text("0 1000 R 0 50\n0 2000 R\n")
        accesses = list(iter_champsim(path))
        assert [a.timestamp for a in accesses] == [50, 51]

    def test_numeric_type_codes(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_text("0 1000 0\n0 2000 1\n")
        accesses = list(iter_champsim(path))
        assert [a.is_write for a in accesses] == [False, True]

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.champsim"
        path.write_text("0x400000 0x1000 R\nonly two\n")
        with pytest.raises(TraceFormatError) as exc_info:
            list(iter_champsim(path))
        assert exc_info.value.line == 2
        assert str(path) in str(exc_info.value)

    def test_bad_access_type(self, tmp_path):
        path = tmp_path / "bad.champsim"
        path.write_text("0x400000 0x1000 X\n")
        with pytest.raises(TraceFormatError, match="access type"):
            list(iter_champsim(path))

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "t.champsim.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0x400000 0x1000 R\n")
        accesses = list(iter_champsim(path))
        assert accesses == [MemoryAccess(address=0x1000, pc=0x400000)]


class TestCsv:
    def test_full_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "timestamp,core,type,pc,address\n"
            "5,1,W,0x400000,0x1000\n"
            "9,0,read,0x400004,8192\n"
        )
        accesses = list(iter_csv(path))
        assert accesses == [
            MemoryAccess(address=0x1000, pc=0x400000,
                         access_type=AccessType.WRITE, core_id=1,
                         timestamp=5),
            MemoryAccess(address=8192, pc=0x400004, timestamp=9),
        ]

    def test_address_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("address\n0x1000\n0x2000\n")
        accesses = list(iter_csv(path))
        assert [a.address for a in accesses] == [0x1000, 0x2000]
        assert [a.timestamp for a in accesses] == [0, 1]  # auto-increment
        assert all(a.access_type is AccessType.READ for a in accesses)

    def test_missing_address_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pc,type\n0x400000,R\n")
        with pytest.raises(TraceFormatError, match="'address' column"):
            list(iter_csv(path))

    def test_bad_cell_reports_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("address\n0x1000\nnot-a-number\n")
        with pytest.raises(TraceFormatError) as exc_info:
            list(iter_csv(path))
        assert exc_info.value.line == 3

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("address\n0x1000\n\n0x2000\n")
        assert len(list(iter_csv(path))) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        assert list(iter_csv(path)) == []


GEM5_DUMP = """\
info: Entering event queue @ 0.  Starting simulation...
   1000: system.cpu0.dcache: ReadReq addr=0x2a40 size 64
   1005: system.ruby.seq: some unrelated debug line
   1010: system.mem_ctrls: Write of size 64 on address 0x1f80
   1020: system.cpu1.icache: IFetch address 0x400100 size 8
   1030: system.cpu3.dcache: WritebackDirty addr 0x7f00 size 64
warn: something noisy
"""


class TestGem5:
    def test_memory_access_lines(self, tmp_path):
        path = tmp_path / "run.gem5"
        path.write_text(GEM5_DUMP)
        accesses = list(iter_gem5(path))
        assert [a.address for a in accesses] == [0x2A40, 0x1F80, 0x400100,
                                                 0x7F00]
        assert [a.access_type for a in accesses] == [
            AccessType.READ, AccessType.WRITE, AccessType.READ,
            AccessType.WRITE,
        ]
        # Core ids recovered from the cpuN path component; tick = timestamp.
        assert [a.core_id for a in accesses] == [0, 0, 1, 3]
        assert [a.timestamp for a in accesses] == [1000, 1010, 1020, 1030]

    def test_response_commands_not_double_counted(self, tmp_path):
        path = tmp_path / "run.gem5"
        path.write_text(
            "  10: system.l2: ReadReq addr=0x100 size 64\n"
            "  20: system.l2: ReadResp addr=0x100 size 64\n"
            "  30: system.l2: WriteReq addr=0x200 size 64\n"
            "  40: system.l2: WriteResp addr=0x200 size 64\n"
        )
        accesses = list(iter_gem5(path))
        # One transaction each, even though both sides were logged.
        assert [a.address for a in accesses] == [0x100, 0x200]

    def test_noise_only_file_rejected(self, tmp_path):
        path = tmp_path / "run.gem5"
        path.write_text("info: banner\nwarn: no accesses here\n")
        with pytest.raises(TraceFormatError, match="no memory accesses"):
            list(iter_gem5(path))

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "run.gem5.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(GEM5_DUMP)
        assert len(list(iter_gem5(path))) == 4

    def test_round_trip_through_binary(self, tmp_path):
        src = tmp_path / "run.gem5"
        src.write_text(GEM5_DUMP)
        dst = tmp_path / "run.rptr"
        count = convert_trace(src, dst)
        assert count == 4
        assert list(read_trace_bin(dst)) == list(iter_gem5(src))

    def test_registered_and_detected(self, tmp_path):
        assert FORMATS["gem5"].writable is False
        assert detect_format(tmp_path / "x.gem5") == "gem5"
        src = tmp_path / "t.gem5"
        src.write_text(GEM5_DUMP)
        assert len(list(open_trace(src))) == 4


class TestDetection:
    def test_binary_detected_by_magic(self, tmp_path):
        path = tmp_path / "weird.csv"  # suffix lies; magic wins
        write_trace_bin(path, [MemoryAccess(address=0, pc=0)])
        assert detect_format(path) == "binary"

    @pytest.mark.parametrize("name,expected", [
        ("t.rptr", "binary"), ("t.bin", "binary"),
        ("t.trace", "text"), ("t.txt", "text"), ("t.txt.gz", "text"),
        ("t.champsim", "champsim"), ("t.champsimtrace", "champsim"),
        ("t.csv", "csv"), ("t.csv.gz", "csv"),
        ("t.unknown", "text"),
    ])
    def test_suffix_detection(self, tmp_path, name, expected):
        assert detect_format(tmp_path / name) == expected

    def test_registry_suffixes_are_disjoint(self):
        seen = {}
        for fmt in FORMATS.values():
            for suffix in fmt.suffixes:
                assert suffix not in seen
                seen[suffix] = fmt.name


class TestConvert:
    def test_champsim_to_binary_to_text(self, tmp_path):
        src = tmp_path / "t.champsim"
        src.write_text("0x400000 0x1000 R\n0x400004 0x2000 W\n")
        binary = tmp_path / "t.rptr"
        assert convert_trace(src, binary) == 2
        loaded = read_trace_bin(binary)
        assert loaded == list(iter_champsim(src))

        text = tmp_path / "t.trace"
        assert convert_trace(binary, text) == 2
        assert list(open_trace(text)) == loaded

    def test_convert_limit(self, tmp_path):
        src = tmp_path / "t.csv"
        rows = [hex(i) for i in range(10)] + ["not-an-address"]
        rows += [hex(i) for i in range(10, 50)]
        src.write_text("address\n" + "\n".join(rows))
        dst = tmp_path / "t.rptr"
        # The limit stops reading before the malformed eleventh row.
        assert convert_trace(src, dst, limit=10) == 10
        assert [a.address for a in read_trace_bin(dst)] == list(range(10))
        with pytest.raises(TraceFormatError):
            convert_trace(src, tmp_path / "all.rptr")
        with pytest.raises(ValueError):
            convert_trace(src, tmp_path / "negative.rptr", limit=-1)
        assert not (tmp_path / "negative.rptr").exists()

    @pytest.mark.parametrize("name", ["b.rptr", "b.trace", "b.trace.gz"])
    def test_source_malformed_mid_stream_leaves_no_partial_file(
            self, tmp_path, name):
        src = tmp_path / "in.csv"
        src.write_text("address,type\n0x1000,R\n0x2000,W\nbad\n0x3000,R\n")
        dst = tmp_path / name
        with pytest.raises(TraceFormatError):
            convert_trace(src, dst)
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["in.csv"]
        # An earlier destination survives a failed conversion untouched.
        good = tmp_path / "good.csv"
        good.write_text("address\n0x40\n")
        assert convert_trace(good, dst) == 1
        before = dst.read_bytes()
        with pytest.raises(TraceFormatError):
            convert_trace(src, dst)
        assert dst.read_bytes() == before
        assert [a.address for a in open_trace(dst)] == [0x40]
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            sorted(["in.csv", "good.csv", name])

    def test_binary_to_binary_preserves_core_count(self, tmp_path):
        from repro.trace.binfmt import read_header

        src = tmp_path / "src.rptr"
        write_trace_bin(src, [MemoryAccess(address=i, pc=0, core_id=i % 8)
                              for i in range(16)], num_cores=8)
        dst = tmp_path / "dst.rptr"
        convert_trace(src, dst, limit=10)
        assert read_header(dst).num_cores == 8

    def test_negative_field_reports_location(self, tmp_path):
        path = tmp_path / "neg.champsim"
        path.write_text("0x400000 0x1000 R\n-beef 1000 R\n")
        with pytest.raises(TraceFormatError) as exc_info:
            list(iter_champsim(path))
        assert exc_info.value.line == 2
        assert str(path) in str(exc_info.value)

    def test_csv_negative_field_reports_location(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("address,core\n0x1000,0\n0x2000,-3\n")
        with pytest.raises(TraceFormatError) as exc_info:
            list(iter_csv(path))
        assert exc_info.value.line == 3

    def test_convert_to_readonly_format_rejected(self, tmp_path):
        src = tmp_path / "t.rptr"
        write_trace_bin(src, [MemoryAccess(address=0, pc=0)])
        with pytest.raises(ValueError, match="ingestion-only"):
            convert_trace(src, tmp_path / "out.csv")

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            convert_trace(tmp_path / "a", tmp_path / "b",
                          in_format="etrace")
