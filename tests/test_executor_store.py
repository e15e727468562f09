"""Executor <-> TraceStore integration: generate once ever, replay anywhere.

Covers the PR's acceptance criterion: a fig6-style sweep run twice
back-to-back hits the trace store on the second run with zero trace
regenerations and produces bit-identical results to the pure in-memory path,
serially and in parallel.
"""

import pytest

from repro.sim.executor import (
    cached_trace,
    clear_caches,
    get_trace_store,
    run_sweep,
    run_trial,
)
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.trace.errors import TraceFormatError
from repro.workloads.generator import SyntheticWorkload


@pytest.fixture
def fig6_spec() -> SweepSpec:
    """A miniature Figure-6-style grid: designs x workloads x capacities."""
    return SweepSpec(
        designs=("unison", "alloy"),
        workloads=("Web Search", "Data Serving"),
        capacities=("256MB", "1GB"),
        config=ExperimentConfig(scale=8192, num_accesses=3000, num_cores=4),
    )


@pytest.fixture
def store_root(tmp_path, monkeypatch):
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_TRACE_STORE", str(root))
    clear_caches()
    yield root
    clear_caches()


@pytest.fixture
def generation_counter(monkeypatch):
    """Count how many synthetic traces are actually generated."""
    calls = []
    original = SyntheticWorkload.iter_chunks

    def counting(self, count, *args, **kwargs):
        calls.append(count)
        return original(self, count, *args, **kwargs)

    monkeypatch.setattr(SyntheticWorkload, "iter_chunks", counting)
    return calls


class TestStoreBackedSweeps:
    def test_second_run_hits_store_with_zero_regenerations(
            self, fig6_spec, store_root, generation_counter):
        store = get_trace_store()
        assert store is not None and store.root == store_root

        first = run_sweep(fig6_spec)
        distinct_traces = 2  # two workloads; capacities share traces
        assert len(generation_counter) == distinct_traces
        assert store.stats.writes == distinct_traces

        # Simulate a fresh process: in-memory caches gone, store persists.
        clear_caches()
        generation_counter.clear()
        store.stats.hits = store.stats.misses = 0

        second = run_sweep(fig6_spec)
        assert generation_counter == []  # zero regenerations
        assert store.stats.hits == distinct_traces
        assert store.stats.misses == 0
        assert second == first  # bit-identical rows

    def test_store_path_is_bit_identical_to_in_memory_path(
            self, fig6_spec, store_root, monkeypatch):
        with_store = run_sweep(fig6_spec)

        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        clear_caches()
        assert get_trace_store() is None
        without_store = run_sweep(fig6_spec)

        assert with_store == without_store

    def test_parallel_equals_serial_through_store(self, fig6_spec,
                                                  store_root):
        serial = run_sweep(fig6_spec, workers=1)
        clear_caches()
        parallel = run_sweep(fig6_spec, workers=2)
        assert serial == parallel

    def test_store_survives_cache_clear_but_not_store_clear(
            self, fig6_spec, store_root, generation_counter):
        run_sweep(fig6_spec)
        store = get_trace_store()
        assert len(store) == 2

        clear_caches()
        store.clear()
        generation_counter.clear()
        run_sweep(fig6_spec)
        assert len(generation_counter) == 2  # regenerated after wipe

    def test_unwritable_store_falls_back_to_memory(self, fig6_spec,
                                                   monkeypatch, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_TRACE_STORE", str(blocker / "nested"))
        clear_caches()
        results = run_sweep(fig6_spec)  # must not raise
        assert len(results) == len(fig6_spec)


class TestOneTraceType:
    """cached_trace hands every caller the same packed record array."""

    def test_every_path_returns_the_same_array(self, store_root,
                                               tiny_profile, monkeypatch,
                                               tmp_path):
        from repro.engine.trace_array import RECORD_DTYPE

        runner = ExperimentRunner(ExperimentConfig(scale=64,
                                                   num_accesses=2500,
                                                   num_cores=4))
        expected = runner.build_trace(tiny_profile)
        store = get_trace_store()

        miss = cached_trace(runner, tiny_profile)
        assert store.stats.writes == 1
        clear_caches()
        hit = cached_trace(runner, tiny_profile)
        assert store.stats.hits == 1

        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_TRACE_STORE", str(blocker / "nested"))
        clear_caches()
        unwritable = cached_trace(runner, tiny_profile)

        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        clear_caches()
        no_store = cached_trace(runner, tiny_profile)

        for trace in (miss, hit, unwritable, no_store):
            assert trace.dtype == RECORD_DTYPE
            assert trace.tobytes() == miss.tobytes()
        assert miss.tobytes() == expected.tobytes()

    def test_trace_file_workload_returns_the_array(self, store_root,
                                                   tiny_profile, tmp_path):
        from repro.trace.binfmt import write_trace_bin
        from repro.workloads.tracefile import TraceFileWorkload

        runner = ExperimentRunner(ExperimentConfig(scale=64,
                                                   num_accesses=2000,
                                                   num_cores=4))
        synthetic = cached_trace(runner, tiny_profile)
        path = tmp_path / "tiny.rptr"
        write_trace_bin(path, synthetic, num_cores=4)
        from_file = cached_trace(runner, TraceFileWorkload(str(path)))
        assert from_file.dtype == synthetic.dtype
        assert from_file.tobytes() == synthetic.tobytes()


    @pytest.mark.parametrize("suffix", ["trace", "csv"])
    def test_trace_file_is_read_up_to_the_limit(self, tiny_profile, tmp_path,
                                                suffix):
        from repro.engine.trace_array import array_to_records
        from repro.trace.io import format_access
        from repro.workloads.tracefile import TraceFileWorkload

        config = ExperimentConfig(scale=64, num_accesses=300, num_cores=4)
        runner = ExperimentRunner(config)
        synthetic = runner.build_trace(tiny_profile)
        if suffix == "csv":
            def row(a):
                return (f"{a.pc:#x},{a.address:#x},"
                        f"{'W' if a.is_write else 'R'},{a.core_id},"
                        f"{a.timestamp}")
            lines = ["pc,address,type,core,timestamp"]
            bad = "0x0,not-an-address,R,0,0"
        else:
            row, lines, bad = format_access, [], "not a trace line"
        records = array_to_records(synthetic)
        lines += [row(a) for a in records[:200]] + [bad]
        lines += [row(a) for a in records[200:]]
        path = tmp_path / f"cut.{suffix}"
        path.write_text("\n".join(lines) + "\n")

        # The file is malformed past its first 200 records, which is all a
        # 200-access trial reads.
        limited = ExperimentRunner(ExperimentConfig(scale=64,
                                                    num_accesses=200,
                                                    num_cores=4))
        trace = limited.build_trace(TraceFileWorkload(str(path)))
        assert trace.tobytes() == synthetic[:200].tobytes()
        with pytest.raises(TraceFormatError):
            runner.build_trace(TraceFileWorkload(str(path)))


class TestTraceFileWorkloads:
    def test_trace_file_cell_matches_synthetic_cell(self, tmp_path,
                                                    store_root, tiny_profile):
        """A synthetic trace exported to disk replays identically."""
        config = ExperimentConfig(scale=64, num_accesses=2500, num_cores=4)
        runner = ExperimentRunner(config)
        trace = runner.build_trace(tiny_profile)

        from repro.trace.binfmt import write_trace_bin

        path = tmp_path / "tiny.rptr"
        write_trace_bin(path, trace, num_cores=4)

        synthetic = run_trial(ExperimentSpec("unison", tiny_profile, "256MB",
                                             config=config))

        from repro.workloads.tracefile import TraceFileWorkload

        replayed = TraceFileWorkload(path=str(path), name=tiny_profile.name,
                                     l2_mpki=tiny_profile.l2_mpki)
        from_file = run_trial(ExperimentSpec("unison", replayed, "256MB",
                                             config=config))
        assert from_file == synthetic

    def test_trace_file_workload_in_sweep_spec(self, tmp_path, store_root,
                                               tiny_profile):
        trace = SyntheticWorkload(tiny_profile, num_cores=4,
                                  seed=1).generate(2000)
        from repro.trace.binfmt import write_trace_bin

        path = tmp_path / "external.rptr"
        write_trace_bin(path, trace, num_cores=4)

        spec = SweepSpec(
            designs=("unison",),
            workloads=(f"trace:{path}", "Web Search"),
            capacities=("256MB",),
            config=ExperimentConfig(scale=8192, num_accesses=2000,
                                    num_cores=4),
        )
        results = run_sweep(spec)
        assert len(results) == 2
        names = {r.workload for r in results}
        assert names == {"external", "Web Search"}

    def test_bare_path_coerces_to_trace_workload(self, tmp_path,
                                                 tiny_profile):
        from repro.trace.binfmt import write_trace_bin
        from repro.sim.spec import ExperimentSpec
        from repro.workloads.tracefile import TraceFileWorkload

        path = tmp_path / "bare.rptr"
        write_trace_bin(path, SyntheticWorkload(
            tiny_profile, num_cores=2, seed=5).generate(100))
        spec = ExperimentSpec(design="unison", workload=str(path),
                              capacity="256MB")
        assert isinstance(spec.workload, TraceFileWorkload)
        assert spec.workload.name == "bare"

    def test_missing_trace_file_fails_at_spec_construction(self):
        with pytest.raises(ValueError, match="not found"):
            SweepSpec(
                designs=("unison",),
                workloads=("trace:/nonexistent/missing.rptr",),
                capacities=("256MB",),
            )

    def test_unknown_name_still_reports_workload_error(self):
        with pytest.raises(ValueError, match="[Uu]nknown workload"):
            SweepSpec(designs=("unison",), workloads=("No Such Workload",),
                      capacities=("256MB",))


class TestOneTraceIdentity:
    """Every trace cache keys on ``trace_token``; the sampler uses them too."""

    @staticmethod
    def _write(path, count):
        from repro.trace.binfmt import write_trace_bin
        from repro.trace.io import write_trace
        from repro.workloads import workload_by_name

        trace = SyntheticWorkload(workload_by_name("Web Search"),
                                  num_cores=2, seed=1).generate(count)
        if path.suffix == ".rptr":
            write_trace_bin(path, trace)
        else:
            write_trace(path, trace)

    def test_rewritten_trace_file_is_read_again(self, tmp_path, store_root):
        path = tmp_path / "w.rptr"
        self._write(path, 500)
        spec = SweepSpec(designs=("unison",), workloads=(f"trace:{path}",),
                         capacities=("1GB",),
                         config=ExperimentConfig(scale=8192,
                                                 num_accesses=1000,
                                                 num_cores=2))
        (trial,) = spec.trials()
        runner = ExperimentRunner(trial.config)
        assert len(cached_trace(runner, trial.workload)) == 500
        before = run_sweep(spec)

        self._write(path, 300)
        assert len(cached_trace(runner, trial.workload)) == 300
        after = run_sweep(spec)
        clear_caches()
        assert after == run_sweep(spec)
        assert after != before

    def test_rewritten_text_trace_is_sampled_again(self, tmp_path,
                                                   store_root):
        from repro.sampling.windows import SamplingConfig

        path = tmp_path / "w.trace"
        self._write(path, 500)
        spec = SweepSpec(designs=("unison",), workloads=(f"trace:{path}",),
                         capacities=("1GB",),
                         config=ExperimentConfig(scale=8192,
                                                 num_accesses=1000,
                                                 num_cores=2),
                         sampling=SamplingConfig(window_accesses=50,
                                                 warmup_accesses=50,
                                                 checkpoint_accesses=100,
                                                 min_windows=2,
                                                 max_windows=2))
        before = run_sweep(spec)

        self._write(path, 300)
        after = run_sweep(spec)
        clear_caches()
        assert after == run_sweep(spec)
        assert after != before

    def test_sampler_loads_its_trace_through_the_store(
            self, store_root, monkeypatch):
        from repro.sampling.runner import WindowedSampler
        from repro.sampling.windows import SamplingConfig
        from repro.workloads import workload_by_name

        generated = []
        original = ExperimentRunner.iter_trace_chunks

        def counting(self, profile):
            generated.append(profile.name)
            return original(self, profile)

        monkeypatch.setattr(ExperimentRunner, "iter_trace_chunks", counting)
        sampler = WindowedSampler(
            SamplingConfig(window_accesses=200, warmup_accesses=200,
                           checkpoint_accesses=1000, min_windows=2,
                           max_windows=2),
            config=ExperimentConfig(scale=8192, num_accesses=6000,
                                    num_cores=2))
        profile = workload_by_name("Web Search")
        runs = []
        for _ in range(2):
            clear_caches()
            runs.append(sampler.compare(["unison"], profile, "1GB"))
        assert generated == ["Web Search"]
        assert len(get_trace_store().entries()) == 1
        assert runs[0].to_resultset() == runs[1].to_resultset()
