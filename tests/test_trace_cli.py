"""Smoke tests for the ``repro trace`` CLI subcommands."""

import pytest

from repro.cli import main
from repro.engine.trace_array import array_to_records
from repro.trace.binfmt import read_header, read_trace_bin
from repro.trace.io import read_trace


class TestTraceGen:
    def test_gen_binary(self, tmp_path, capsys):
        out = tmp_path / "ws.rptr"
        code = main(["trace", "gen", "--workload", "Web Search",
                     "--accesses", "2000", "--cores", "4",
                     "--scale", "8192", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "wrote 2000 accesses" in capsys.readouterr().out
        header = read_header(out)
        assert header.access_count == 2000
        assert header.num_cores == 4

    def test_gen_matches_executor_trace(self, tmp_path):
        """``trace gen`` writes exactly what a sweep cell would replay."""
        from repro.sim.experiment import ExperimentConfig, ExperimentRunner
        from repro.workloads.cloudsuite import workload_by_name

        out = tmp_path / "ws.rptr"
        main(["trace", "gen", "--workload", "Web Search",
              "--accesses", "1500", "--cores", "4", "--scale", "8192",
              "--out", str(out)])
        runner = ExperimentRunner(ExperimentConfig(
            scale=8192, num_accesses=1500, num_cores=4, seed=1))
        assert read_trace_bin(out) == array_to_records(runner.build_trace(
            workload_by_name("Web Search")))

    def test_gen_binary_bytes_match_the_record_writer(self, tmp_path):
        """``trace gen`` writes the generator's arrays as they come; the
        file is byte-identical to writing the record view at the writer's
        default level."""
        from repro.sim.experiment import ExperimentConfig, ExperimentRunner
        from repro.trace.binfmt import write_trace_bin
        from repro.workloads.cloudsuite import workload_by_name
        from repro.workloads.generator import SyntheticWorkload

        out = tmp_path / "gen.rptr"
        reference = tmp_path / "records.rptr"
        main(["trace", "gen", "--workload", "Data Analytics",
              "--accesses", "20000", "--cores", "12", "--scale", "512",
              "--seed", "3", "--out", str(out)])
        profile = ExperimentRunner(ExperimentConfig(scale=512)).scaled_profile(
            workload_by_name("Data Analytics"))
        records = SyntheticWorkload(profile, num_cores=12, seed=3).generate(
            20000)
        write_trace_bin(reference, records, num_cores=12)
        assert out.read_bytes() == reference.read_bytes()

    def test_gen_text_format(self, tmp_path):
        out = tmp_path / "ws.trace"
        assert main(["trace", "gen", "--accesses", "100",
                     "--scale", "8192", "--out", str(out)]) == 0
        assert len(read_trace(out)) == 100

    def test_gen_unknown_workload(self, tmp_path, capsys):
        code = main(["trace", "gen", "--workload", "nope",
                     "--out", str(tmp_path / "x.rptr")])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_gen_rejects_nonpositive_accesses(self, tmp_path, capsys):
        code = main(["trace", "gen", "--accesses", "0",
                     "--out", str(tmp_path / "x.rptr")])
        assert code == 2


class TestTraceInfo:
    def test_info_binary(self, tmp_path, capsys):
        out = tmp_path / "t.rptr"
        main(["trace", "gen", "--accesses", "500", "--cores", "2",
              "--scale", "8192", "--out", str(out)])
        capsys.readouterr()
        assert main(["trace", "info", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "format=binary" in printed
        assert "accesses=500" in printed
        assert "cores=2" in printed

    def test_info_text_with_count(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        main(["trace", "gen", "--accesses", "50", "--scale", "8192",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["trace", "info", "--count", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "format=text" in printed and "accesses=50" in printed

    def test_info_missing_file(self, tmp_path, capsys):
        assert main(["trace", "info", str(tmp_path / "no.rptr")]) == 1
        assert "not a file" in capsys.readouterr().err


class TestTraceConvert:
    def test_convert_csv_to_binary(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("address,type\n0x1000,R\n0x2000,W\n")
        dst = tmp_path / "out.rptr"
        assert main(["trace", "convert", str(src), str(dst)]) == 0
        assert "wrote 2 accesses" in capsys.readouterr().out
        assert len(read_trace_bin(dst)) == 2

    def test_convert_reports_malformed_input(self, tmp_path, capsys):
        src = tmp_path / "in.champsim"
        src.write_text("bad\n")
        dst = tmp_path / "out.rptr"
        assert main(["trace", "convert", str(src), str(dst)]) == 1
        err = capsys.readouterr().err
        assert "in.champsim" in err and ":1:" in err

    def test_formats_listing(self, capsys):
        assert main(["trace", "formats"]) == 0
        printed = capsys.readouterr().out
        for name in ("binary", "text", "champsim", "csv"):
            assert name in printed


class TestSweepBackCompat:
    def test_top_level_sweep_flags_still_work(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["--designs", "unison", "--workloads", "Web Search",
                     "--capacities", "256MB", "--scale", "8192",
                     "--accesses", "2000", "--cores", "2",
                     "--json", "-", "--quiet"])
        assert code == 0
        assert "unison" in capsys.readouterr().out

    def test_explicit_sweep_subcommand(self, capsys):
        assert main(["sweep", "--list-designs"]) == 0
        assert "unison" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_reports_a_cut_trace(self, tmp_path, capsys, monkeypatch,
                                       jobs):
        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "cut.rptr"
        main(["trace", "gen", "--accesses", "9000", "--cores", "2",
              "--scale", "8192", "--out", str(trace_path)])
        trace_path.write_bytes(trace_path.read_bytes()[:-10])
        capsys.readouterr()
        code = main(["sweep", "--designs", "unison",
                     "--workloads", f"trace:{trace_path}",
                     "--capacities", "1GB", "--scale", "8192",
                     "--accesses", "9000", "--jobs", jobs, "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "sweep_results.json").exists()


class TestTraceConvertCodec:
    def test_codec_none_yields_uncompressed(self, tmp_path):
        from repro.trace.binfmt import read_header

        src = tmp_path / "in.csv"
        src.write_text("address,type\n0x1000,R\n0x2000,W\n")
        dst = tmp_path / "out.rptr"
        assert main(["trace", "convert", str(src), str(dst),
                     "--codec", "none"]) == 0
        assert read_header(dst).codec == "none"
        assert len(read_trace_bin(dst)) == 2

    def test_codec_zstd_is_not_a_choice(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("address,type\n0x1000,R\n")
        dst = tmp_path / "out.rptr"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "convert", str(src), str(dst), "--codec", "zstd"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'zstd'" in capsys.readouterr().err
        assert not dst.exists()

    def test_codec_rejected_for_text_output(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("address,type\n0x1000,R\n")
        code = main(["trace", "convert", str(src), str(tmp_path / "out.trace"),
                     "--codec", "gzip"])
        assert code == 1
        assert "binary" in capsys.readouterr().err


class TestTraceStoreCli:
    def test_info_reports_configured_store(self, capsys):
        assert main(["trace", "store", "info"]) == 0
        out = capsys.readouterr().out
        assert "root:" in out and "budget:" in out

    def test_gc_reclaims_orphans_and_reports_bytes(self, tmp_path,
                                                   monkeypatch, capsys):
        import os as _os

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        (tmp_path / "store").mkdir()
        orphan = tmp_path / "store" / "gone.rptr.rpti"
        orphan.write_bytes(b"x" * 100)
        stale = tmp_path / "store" / "t.rptr.tmp.123"
        stale.write_bytes(b"y" * 50)
        _os.utime(stale, (1, 1))  # ancient: no live writer owns it
        fresh = tmp_path / "store" / "u.rptr.tmp.456"
        fresh.write_bytes(b"z" * 25)  # a live writer's in-flight temp
        assert main(["trace", "store", "gc"]) == 0
        assert "reclaimed 150 bytes" in capsys.readouterr().out
        assert not orphan.exists() and not stale.exists()
        assert fresh.exists()

    def test_gc_evicts_to_explicit_budget(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.trace.store import TraceStore
        from repro.workloads.cloudsuite import workload_by_name

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        store = TraceStore(root=tmp_path / "store")
        from tests.test_binfmt import sample_trace
        for seed in (1, 2):
            store.put(store.key(workload_by_name("Web Search"), 128, 4,
                                seed, 400), sample_trace(400))
        assert main(["trace", "store", "gc", "--max-bytes", "1KB"]) == 0
        assert "reclaimed" in capsys.readouterr().out
        assert len(store) <= 1

    def test_disabled_store_errors(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert main(["trace", "store", "info"]) == 1
        assert "disabled" in capsys.readouterr().err


class TestSampleCli:
    def test_sample_two_designs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["sample", "--designs", "unison", "alloy",
                     "--workload", "Web Search", "--capacity", "1GB",
                     "--scale", "8192", "--accesses", "12000",
                     "--windows", "3", "--window-accesses", "800",
                     "--warmup-accesses", "800",
                     "--checkpoint-accesses", "2000",
                     "--json", "sample.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "95% CI" in out
        assert "Matched-pair deltas" in out
        assert (tmp_path / "sample.json").exists()

    def test_sample_trace_file_workload(self, tmp_path, capsys):
        trace_path = tmp_path / "t.rptr"
        main(["trace", "gen", "--accesses", "9000", "--cores", "2",
              "--scale", "8192", "--out", str(trace_path)])
        capsys.readouterr()
        code = main(["sample", "--designs", "unison",
                     "--workload", str(trace_path), "--capacity", "1GB",
                     "--scale", "8192", "--accesses", "9000",
                     "--windows", "2", "--window-accesses", "500",
                     "--warmup-accesses", "500",
                     "--checkpoint-accesses", "1000", "--quiet"])
        assert code == 0
        assert "unison" in capsys.readouterr().out

    def test_sample_reports_a_cut_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "cut.rptr"
        main(["trace", "gen", "--accesses", "9000", "--cores", "2",
              "--scale", "8192", "--out", str(trace_path)])
        trace_path.write_bytes(trace_path.read_bytes()[:-10])
        capsys.readouterr()
        code = main(["sample", "--designs", "unison",
                     "--workload", str(trace_path), "--capacity", "1GB",
                     "--scale", "8192", "--accesses", "9000",
                     "--windows", "2", "--window-accesses", "500",
                     "--warmup-accesses", "500",
                     "--checkpoint-accesses", "1000", "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sample_rejects_unknown_design(self, capsys):
        assert main(["sample", "--designs", "nope"]) == 2
        assert "error:" in capsys.readouterr().err
