"""Tests for the seekable trace layer: chunk index, mmap and window readers."""

import struct

import pytest

from repro.engine.trace_array import array_to_records
from repro.trace.binfmt import (
    DEFAULT_CHUNK_RECORDS,
    HEADER,
    RECORD,
    BinaryTraceReader,
    BinaryTraceWriter,
    ChunkIndex,
    index_path_for,
    read_trace_bin,
    write_trace_bin,
)
from repro.trace.errors import TraceFormatError
from repro.sampling.seekable import (
    FileWindows,
    IndexedWindowReader,
    InMemoryWindows,
    MmapTraceReader,
    open_window_reader,
)
from tests.test_binfmt import sample_trace


N_MULTI_CHUNK = DEFAULT_CHUNK_RECORDS * 2 + 500


class TestChunkIndexSidecar:
    @pytest.mark.parametrize("compress", [True, False])
    def test_writer_emits_loadable_sidecar(self, tmp_path, compress):
        trace = sample_trace(N_MULTI_CHUNK)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, compress=compress)
        assert index_path_for(path).exists()
        index = ChunkIndex.load(path)
        assert index is not None
        assert index.access_count == N_MULTI_CHUNK
        assert list(index.starts) == [0, DEFAULT_CHUNK_RECORDS,
                                      2 * DEFAULT_CHUNK_RECORDS]
        assert index.offsets[0] == HEADER.size
        assert list(index.offsets) == sorted(index.offsets)

    def test_write_index_false_writes_no_sidecar(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(100), write_index=False)
        assert not index_path_for(path).exists()

    def test_empty_trace_sidecar(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, [])
        index = ChunkIndex.load(path)
        assert index is not None and len(index) == 0

    def test_reconstruct_uncompressed_is_arithmetic(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(N_MULTI_CHUNK), compress=False)
        index_path_for(path).unlink()
        index = ChunkIndex.reconstruct(path)
        assert list(index.starts) == [0, DEFAULT_CHUNK_RECORDS,
                                      2 * DEFAULT_CHUNK_RECORDS]
        assert index.offsets[1] == HEADER.size + DEFAULT_CHUNK_RECORDS * RECORD.size

    def test_reconstruct_scans_gzip_members(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(N_MULTI_CHUNK), compress=True)
        written = ChunkIndex.load(path)
        index_path_for(path).unlink()
        rebuilt = ChunkIndex.reconstruct(path)
        assert rebuilt.starts == written.starts
        assert rebuilt.offsets == written.offsets

    def test_ensure_saves_reconstruction(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(500), write_index=False)
        index = ChunkIndex.ensure(path)
        assert index_path_for(path).exists()
        assert ChunkIndex.load(path) is not None
        assert index.access_count == 500

    def test_stale_sidecar_rejected(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(500))
        write_trace_bin(path, sample_trace(300), write_index=False)
        # Sidecar still describes the 500-record file: must not load.
        assert ChunkIndex.load(path) is None
        assert ChunkIndex.ensure(path).access_count == 300

    def test_corrupt_sidecar_rejected(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(200))
        index_path_for(path).write_bytes(b"garbage!")
        assert ChunkIndex.load(path) is None

    def test_chunk_containing(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(N_MULTI_CHUNK))
        index = ChunkIndex.load(path)
        assert index.chunk_containing(0) == 0
        assert index.chunk_containing(DEFAULT_CHUNK_RECORDS - 1) == 0
        assert index.chunk_containing(DEFAULT_CHUNK_RECORDS) == 1
        assert index.chunk_containing(N_MULTI_CHUNK - 1) == 2
        with pytest.raises(IndexError):
            index.chunk_containing(N_MULTI_CHUNK)

    def test_aborted_stream_has_no_sidecar(self, tmp_path):
        path = tmp_path / "t.rptr"
        try:
            with BinaryTraceWriter(path) as writer:
                writer.write_all(sample_trace(10))
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert not index_path_for(path).exists()


class TestMmapTraceReader:
    def test_windows_match_streaming_reader(self, tmp_path):
        trace = sample_trace(N_MULTI_CHUNK)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, compress=False)
        with MmapTraceReader(path) as reader:
            assert reader.access_count == N_MULTI_CHUNK
            for start, stop in [(0, 10), (100, 100), (16000, 17000),
                                (N_MULTI_CHUNK - 5, N_MULTI_CHUNK)]:
                assert reader.read_window(start, stop) == trace[start:stop]
            # Clipping past the end, and read_all equivalence.
            assert reader.read_window(N_MULTI_CHUNK - 2, N_MULTI_CHUNK + 50) \
                == trace[-2:]
            assert reader.read_all() == trace

    def test_rejects_compressed_trace(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(10), compress=True)
        with pytest.raises(TraceFormatError, match="uncompressed"):
            MmapTraceReader(path)

    def test_rejects_bad_window_bounds(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace_bin(path, sample_trace(10), compress=False)
        with MmapTraceReader(path) as reader:
            with pytest.raises(ValueError):
                reader.read_window(-1, 5)
            with pytest.raises(ValueError):
                reader.read_window(5, 3)

    def test_iteration_still_streams(self, tmp_path):
        trace = sample_trace(300)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, compress=False)
        assert list(MmapTraceReader(path)) == trace


class TestIndexedWindowReader:
    @pytest.mark.parametrize("with_sidecar", [True, False])
    def test_windows_match_trace(self, tmp_path, with_sidecar):
        trace = sample_trace(N_MULTI_CHUNK)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, compress=True)
        if not with_sidecar:
            index_path_for(path).unlink()
        with IndexedWindowReader(path) as reader:
            assert reader.access_count == N_MULTI_CHUNK
            for start, stop in [(0, 64), (DEFAULT_CHUNK_RECORDS - 3,
                                          DEFAULT_CHUNK_RECORDS + 3),
                                (N_MULTI_CHUNK - 100, N_MULTI_CHUNK)]:
                assert reader.read_window(start, stop) == trace[start:stop]

    def test_legacy_single_member_file(self, tmp_path):
        """A pre-sidecar gzip file (one member) still windows correctly."""
        import gzip

        trace = sample_trace(2000)
        path = tmp_path / "legacy.rptr"
        write_trace_bin(path, trace, compress=False, write_index=False)
        raw = path.read_bytes()
        header = bytearray(raw[:HEADER.size])
        # Patch the flags to FLAG_GZIP and re-wrap the payload as a single
        # gzip member, exactly like the pre-chunk-member writer did.
        struct.pack_into("<H", header, 6, 0x0001)
        path.write_bytes(bytes(header) + gzip.compress(raw[HEADER.size:],
                                                       mtime=0))
        reader = IndexedWindowReader(path)
        assert len(reader.index) == 1
        assert reader.read_window(500, 700) == trace[500:700]


class TestOpenWindowReader:
    def test_dispatches_by_codec(self, tmp_path):
        plain = tmp_path / "plain.rptr"
        packed = tmp_path / "packed.rptr"
        write_trace_bin(plain, sample_trace(50), compress=False)
        write_trace_bin(packed, sample_trace(50), compress=True)
        assert isinstance(open_window_reader(plain), MmapTraceReader)
        assert isinstance(open_window_reader(packed), IndexedWindowReader)


class TestWindowProviders:
    def test_in_memory_windows(self):
        trace = sample_trace(100)
        provider = InMemoryWindows(trace)
        assert provider.total == 100
        # The provider holds the trace as one packed record array.
        assert array_to_records(provider.read(10, 20)) == trace[10:20]
        assert array_to_records(provider.read(90, 200)) == trace[90:]

    @pytest.mark.parametrize("compress", [True, False])
    def test_file_windows(self, tmp_path, compress):
        trace = sample_trace(400)
        path = tmp_path / "t.rptr"
        write_trace_bin(path, trace, compress=compress)
        provider = FileWindows(path, limit=300)
        assert provider.total == 300
        assert list(provider.read(100, 150)) == trace[100:150]
        # The limit truncates exactly like ExperimentConfig.num_accesses.
        assert list(provider.read(250, 400)) == trace[250:300]
        provider.close()

    def test_file_windows_rejects_text(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("not binary\n")
        with pytest.raises(TraceFormatError):
            FileWindows(path)
