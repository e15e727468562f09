"""Tests for opening binary traces as record arrays and the window providers."""

import gzip
import struct

import numpy as np
import pytest

from repro.engine.trace_array import array_to_records, records_to_array
from repro.trace.binfmt import (
    DEFAULT_CHUNK_RECORDS,
    HEADER,
    MAGIC,
    RECORD,
    VERSION,
    BinaryTraceReader,
    BinaryTraceWriter,
    open_trace_array,
    write_trace_bin,
)
from repro.trace.errors import TraceFormatError
from repro.sampling.seekable import FileWindows, InMemoryWindows
from tests.test_binfmt import sample_trace


N_MULTI_CHUNK = DEFAULT_CHUNK_RECORDS * 2 + 500


class TestChunkIndexSidecar:
    """The writer writes no chunk-index sidecar (older versions did)."""

    @pytest.mark.parametrize("codec", ["none", "gzip"])
    def test_writer_writes_no_sidecar(self, tmp_path, codec):
        write_trace_bin(tmp_path / "t.rptr", sample_trace(100), codec=codec)
        assert [p.name for p in tmp_path.iterdir()] == ["t.rptr"]

    def test_aborted_stream_has_no_sidecar(self, tmp_path):
        path = tmp_path / "t.rptr"
        try:
            with BinaryTraceWriter(path) as writer:
                writer.write_all(sample_trace(10))
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert [p.name for p in tmp_path.iterdir()] == ["t.rptr"]


class TestOpenTraceArray:
    @pytest.mark.parametrize("codec", ["none", "gzip"])
    def test_windows_match_trace(self, tmp_path, codec):
        trace = sample_trace(N_MULTI_CHUNK)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, codec=codec)
        array = open_trace_array(path)
        assert array.tobytes() == records_to_array(trace).tobytes()
        for start, stop in [(0, 64), (100, 100),
                            (DEFAULT_CHUNK_RECORDS - 3,
                             DEFAULT_CHUNK_RECORDS + 3),
                            (N_MULTI_CHUNK - 100, N_MULTI_CHUNK)]:
            assert array_to_records(array[start:stop]) == trace[start:stop]

    def test_maps_raw_and_reads_gzip(self, tmp_path):
        plain = tmp_path / "plain.rptr"
        packed = tmp_path / "packed.rptr"
        write_trace_bin(plain, sample_trace(50), codec="none")
        write_trace_bin(packed, sample_trace(50), codec="gzip")
        mapped = open_trace_array(plain)
        read = open_trace_array(packed)
        assert type(mapped) is np.ndarray
        assert isinstance(mapped.base, np.memmap)
        assert not isinstance(read.base, np.memmap)
        assert mapped.tobytes() == read.tobytes()

    def test_empty_trace(self, tmp_path):
        for codec in ("none", "gzip"):
            path = tmp_path / f"{codec}.rptr"
            write_trace_bin(path, [], codec=codec)
            assert len(open_trace_array(path)) == 0

    def test_legacy_single_member_file(self, tmp_path):
        """A gzip file whose payload is one member still reads exactly."""
        trace = sample_trace(2000)
        path = tmp_path / "legacy.rptr"
        write_trace_bin(path, trace, codec="none")
        raw = path.read_bytes()
        header = bytearray(raw[:HEADER.size])
        # Patch the flags to FLAG_GZIP and re-wrap the payload as a single
        # gzip member, as the writer did before it wrote one per chunk.
        struct.pack_into("<H", header, 6, 0x0001)
        path.write_bytes(bytes(header) + gzip.compress(raw[HEADER.size:],
                                                       mtime=0))
        assert array_to_records(open_trace_array(path)[500:700]) \
            == trace[500:700]

    @pytest.mark.parametrize("codec", ["none", "gzip"])
    def test_non_finalized_trace_rejected(self, tmp_path, codec):
        path = tmp_path / "t.rptr"
        with pytest.raises(RuntimeError):
            with BinaryTraceWriter(path, codec=codec) as writer:
                writer.write_all(sample_trace(10))
                raise RuntimeError("abort")
        with pytest.raises(TraceFormatError, match="non-finalized"):
            open_trace_array(path)

    @pytest.mark.parametrize("cut", [5, 27])
    @pytest.mark.parametrize("codec", ["none", "gzip"])
    def test_truncated_payload_rejected(self, tmp_path, codec, cut):
        """A partial record, or fewer records than the header promises."""
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(10), codec="none")
        blob = path.read_bytes()[:-cut]
        if codec == "gzip":
            header = bytearray(blob[:HEADER.size])
            struct.pack_into("<H", header, 6, 0x0001)
            blob = bytes(header) + gzip.compress(blob[HEADER.size:], mtime=0)
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match="truncated"):
            open_trace_array(path)

    def test_header_count_bounds_the_array(self, tmp_path):
        path = tmp_path / "t.rptr"
        trace = records_to_array(sample_trace(20))
        path.write_bytes(HEADER.pack(MAGIC, VERSION, 0, 4, 12)
                         + trace.tobytes())
        assert open_trace_array(path).tobytes() == trace[:12].tobytes()


class TestCorruptGzipPayload:
    """A damaged gzip payload is a format error on every read path."""

    @pytest.mark.parametrize("damage", [4, 10, 100, "flip"])
    def test_damaged_payload_raises_format_error(self, tmp_path, damage):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(1000), codec="gzip")
        blob = bytearray(path.read_bytes())
        if damage == "flip":
            blob[HEADER.size + (len(blob) - HEADER.size) // 2] ^= 0xFF
        else:
            del blob[-damage:]
        path.write_bytes(bytes(blob))
        reader = BinaryTraceReader(path)
        for read in (lambda: open_trace_array(path), lambda: list(reader),
                     reader.read_all_array):
            with pytest.raises(TraceFormatError):
                read()


def _corrupt_access_type(path, record):
    """Set record ``record``'s access-type code of a raw file to 7."""
    blob = bytearray(path.read_bytes())
    blob[HEADER.size + record * RECORD.size + 26] = 7
    path.write_bytes(bytes(blob))


class TestIndexedWindowReader:
    """Windows of a multi-member gzip trace, read by record index.

    Older writers left a ``.rpti`` chunk-index sidecar beside each trace;
    a leftover one must not change what is read.
    """

    @pytest.mark.parametrize("with_sidecar", [True, False])
    def test_windows_match_trace(self, tmp_path, with_sidecar):
        trace = sample_trace(N_MULTI_CHUNK)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, codec="gzip")
        if with_sidecar:
            (tmp_path / "t.rptr.rpti").write_bytes(b"stale index")
        provider = FileWindows(path)
        assert provider.total == N_MULTI_CHUNK
        for start, stop in [(0, 64), (DEFAULT_CHUNK_RECORDS - 3,
                                      DEFAULT_CHUNK_RECORDS + 3),
                            (N_MULTI_CHUNK - 100, N_MULTI_CHUNK)]:
            assert array_to_records(provider.read(start, stop)) \
                == trace[start:stop]
        provider.close()


class TestWindowProviders:
    def test_in_memory_windows(self):
        trace = sample_trace(100)
        provider = InMemoryWindows(trace)
        assert provider.total == 100
        # The provider holds the trace as one packed record array.
        assert array_to_records(provider.read(10, 20)) == trace[10:20]
        assert array_to_records(provider.read(90, 200)) == trace[90:]

    @pytest.mark.parametrize("compressed", [True, False])
    def test_file_windows(self, tmp_path, compressed):
        trace = sample_trace(400)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, codec="gzip" if compressed else "none")
        provider = FileWindows(path, limit=300)
        assert provider.total == 300
        assert array_to_records(provider.read(100, 150)) == trace[100:150]
        # The limit truncates exactly like ExperimentConfig.num_accesses.
        assert array_to_records(provider.read_array(250, 400)) \
            == trace[250:300]
        provider.close()
        assert FileWindows(path, limit=10_000).total == 400
        assert FileWindows(path, limit=0).total == 0

    def test_rejects_bad_window_bounds(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(10), codec="none")
        provider = FileWindows(path)
        with pytest.raises(ValueError):
            provider.read_array(-1, 5)
        with pytest.raises(ValueError):
            provider.read_array(5, 3)

    def test_file_windows_check_access_types_per_window(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(100), codec="none")
        _corrupt_access_type(path, 60)
        provider = FileWindows(path)
        assert len(provider.read_array(0, 60)) == 60
        with pytest.raises(TraceFormatError, match="access-type"):
            provider.read_array(50, 70)
        with pytest.raises(TraceFormatError, match="access-type"):
            provider.read(60, 61)

    def test_full_replay_checks_access_types(self, tmp_path):
        from repro.sim.experiment import ExperimentConfig, ExperimentRunner
        from repro.workloads.tracefile import TraceFileWorkload

        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(100), codec="none")
        _corrupt_access_type(path, 60)
        runner = ExperimentRunner(ExperimentConfig(num_accesses=100))
        with pytest.raises(TraceFormatError, match="access-type"):
            runner.build_trace(TraceFileWorkload(path=str(path)))

    def test_file_windows_rejects_text(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("not binary\n")
        with pytest.raises(TraceFormatError):
            FileWindows(path)
