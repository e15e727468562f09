"""Telemetry subsystem tests: no-op contract, ledger, sinks, CLI views.

The two load-bearing guarantees:

1. **Bit-identity** -- enabling telemetry must not change a single byte of
   any ResultSet; the sinks are strictly on the side.
2. **No-op cheapness** -- with ``REPRO_TELEMETRY`` unset, the instrumented
   code paths go through shared null singletons whose total cost is far
   below 2% of a 100k-access replay.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.obs.core import (NULL_RUN, PHASE_ORDER, current, emit_event,
                            job_context, ledger_path, query_root, start_run,
                            telemetry_enabled)
from repro.obs.heartbeat import NULL_HEARTBEAT, worker_heartbeat
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, RunLedger, summarize
from repro.obs.manifest import find_manifest, read_manifest
from repro.obs.profiling import maybe_profile, profiling_enabled
from repro.queue import JobStore, PlannedJob, SweepService
from repro.sampling.windows import SamplingConfig
from repro.sim.executor import SweepExecutor, run_trial
from repro.sim.experiment import ExperimentConfig
from repro.sim.spec import SweepSpec


@pytest.fixture
def obs_off(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)


@pytest.fixture
def obs_on(tmp_path, monkeypatch):
    """Telemetry enabled into a private directory (own trace store too)."""
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry"))
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    return tmp_path / "telemetry"


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        designs=("unison",),
        workloads=("Web Search",),
        capacities=("512MB",),
        config=ExperimentConfig(scale=4096, num_accesses=2000),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def sampled_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        designs=("unison", "alloy"),
        workloads=("Web Search",),
        capacities=("512MB",),
        config=ExperimentConfig(scale=2048, num_accesses=8000),
        sampling=SamplingConfig(window_accesses=400, max_windows=8,
                                min_windows=4),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# --------------------------------------------------------------------- #
# The no-op contract
# --------------------------------------------------------------------- #
class TestDisabled:
    def test_start_run_returns_shared_null_run(self, obs_off):
        assert not telemetry_enabled()
        run = start_run("trial", design="unison")
        assert run is NULL_RUN
        assert current() is NULL_RUN
        with run as active:
            with active.span("measure") as span:
                span.add("windows", 1)
            active.counter("accesses", 100)
            active.event("window", index=0)

    def test_disabled_run_writes_nothing(self, obs_off, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        with start_run("trial") as run:
            run.counter("accesses", 1)
        assert not (tmp_path / "telemetry").exists()
        assert ledger_path() is None

    def test_emit_event_without_ledger_only_logs(self, obs_off):
        emit_event("lease_theft", sweep="tok", seq=1, owner="w")

    def test_worker_heartbeat_degrades_to_null(self, obs_off):
        assert worker_heartbeat("owner") is NULL_HEARTBEAT
        NULL_HEARTBEAT.idle()
        NULL_HEARTBEAT.finished(True)
        NULL_HEARTBEAT.exited()

    def test_profiling_disabled_yields_none(self, obs_off):
        assert not profiling_enabled()
        with maybe_profile("unit") as artifact:
            assert artifact is None

    def test_noop_overhead_under_two_percent_of_replay(self, obs_off,
                                                       tmp_path,
                                                       monkeypatch):
        """The disabled instrumentation is budgeted per *phase*, never per
        access: one trial performs ~10 null span/counter calls.  Time a
        real 100k-access replay, then 10_000 null telemetry operations --
        a 1000x exaggeration of what a trial pays -- and require even that
        to stay under 2% of the replay."""
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        from repro.sim.spec import ExperimentSpec

        trial = ExperimentSpec(
            design="unison", workload="Web Search", capacity="512MB",
            config=ExperimentConfig(scale=4096, num_accesses=100_000),
        )
        started = time.perf_counter()
        run_trial(trial)
        replay_seconds = time.perf_counter() - started

        run = start_run("trial", design="unison")
        started = time.perf_counter()
        for _ in range(10_000):
            with run.span("measure") as span:
                span.add("windows", 1)
            run.counter("accesses", 100)
        noop_seconds = time.perf_counter() - started
        assert noop_seconds < 0.02 * replay_seconds, (
            f"10k no-op telemetry calls took {noop_seconds:.4f}s against a "
            f"{replay_seconds:.2f}s replay"
        )


# --------------------------------------------------------------------- #
# Bit-identity
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def _run_twice(self, spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        plain = SweepExecutor(workers=1).run(spec)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "obs"))
        observed = SweepExecutor(workers=1).run(spec)
        return plain, observed

    def test_full_replay_identical_with_and_without(self, tmp_path,
                                                    monkeypatch):
        plain, observed = self._run_twice(tiny_spec(), tmp_path, monkeypatch)
        assert observed == plain
        assert observed.to_json() == plain.to_json()

    def test_sampled_identical_with_and_without(self, tmp_path, monkeypatch):
        plain, observed = self._run_twice(sampled_spec(), tmp_path,
                                          monkeypatch)
        assert observed == plain
        assert observed.to_json() == plain.to_json()
        # ... and the observed pass really did record runs.
        with RunLedger(tmp_path / "obs" / "ledger.sqlite") as ledger:
            assert ledger.runs(limit=5)


class TestSampledMeasureSpans:
    """A sampled window's time is split into four phases inside measure."""

    CHILDREN = ("restore", "window_warm", "baseline", "replay")

    def test_children_appear_and_fit_inside_measure(self, obs_on, capsys):
        from repro.cli import main

        result = SweepExecutor(workers=1).run(sampled_spec())
        assert not any(key in self.CHILDREN
                       for row in result for key in row.extra)

        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            rows = ledger.runs(limit=50, kind="trial")
            assert rows
            for row in rows:
                phases = ledger.phases_for([row["run_id"]])
                for name in self.CHILDREN:
                    assert phases[name][1] > 0, name
                children = sum(phases[name][0] for name in self.CHILDREN)
                assert children <= phases["measure"][0]
            summary = summarize(ledger, rows)
            run_id = rows[0]["run_id"]

        restores = summary["phases"]["restore"][0]
        assert summary["restore_share"] == pytest.approx(
            restores / summary["wall_seconds"])
        assert main(["runs", "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "restore_share:" in out
        for name in self.CHILDREN:
            assert name in out


class TestEngineRecords:
    """Each trial records which engine served its warm and replay calls."""

    def _trial_runs(self, obs_on):
        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            rows = ledger.runs(limit=50, kind="trial")
            assert rows
            return rows, summarize(ledger, rows), [
                dict(event) for event in ledger.events_for(limit=50)]

    def test_batch_trial_counts_batch_calls(self, obs_on, capsys):
        from repro.cli import main

        result = SweepExecutor(workers=1).run(tiny_spec())
        assert not any("engine" in key or "scalar" in key
                       for row in result for key in row.extra)
        rows, summary, events = self._trial_runs(obs_on)
        engine = summary["engine"]
        # One warm-up and one measurement replay, both on a kernel.
        assert engine["batch_calls"] == 2
        assert engine["batch_accesses"] == 2000
        assert engine["scalar_calls"] == 0
        assert engine["scalar_fallbacks"] == []
        assert not any(name.startswith("engine_")
                       for name in summary["metrics"])
        assert not [e for e in events if e["kind"] == "scalar_fallback"]
        assert main(["runs", "show", rows[0]["run_id"]]) == 0
        out = capsys.readouterr().out
        assert [line.strip() for line in out.splitlines()
                if line.strip().startswith("engine:")] == [
            "engine: batch 2 calls (2,000 accesses), scalar 0 calls "
            "(0 accesses)"]

    def test_scalar_trial_records_its_fallback(self, obs_on, monkeypatch,
                                               capsys):
        from repro.cli import main
        from repro.serve import ReadModel

        monkeypatch.setenv("REPRO_BATCH", "0")
        SweepExecutor(workers=1).run(tiny_spec())
        rows, summary, events = self._trial_runs(obs_on)
        engine = summary["engine"]
        assert engine["batch_calls"] == 0
        assert engine["scalar_calls"] == 2
        assert engine["scalar_fallbacks"] == ["REPRO_BATCH=0"]
        fallbacks = [e for e in events if e["kind"] == "scalar_fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["run_id"] == rows[0]["run_id"]
        assert json.loads(fallbacks[0]["detail"]) == {
            "design": "unison", "reason": "REPRO_BATCH=0"}

        assert main(["runs", "show", rows[0]["run_id"]]) == 0
        out = capsys.readouterr().out
        assert ("engine: batch 0 calls (0 accesses), scalar 2 calls "
                "(2,000 accesses); scalar fallback: REPRO_BATCH=0") in out
        assert "scalar_fallback" in out  # the recent-events list

        model = ReadModel(queue_dir=obs_on.parent / "queue",
                          telemetry_dir=obs_on)
        listed = model.runs(kind="trial")["runs"]
        assert listed[0]["engine"] == engine
        detail = model.run_detail(rows[0]["run_id"])
        assert detail["summary"]["engine"] == engine


# --------------------------------------------------------------------- #
# Runs, spans, manifests
# --------------------------------------------------------------------- #
class TestRunRecording:
    def test_run_records_phases_metrics_and_manifest(self, obs_on):
        with job_context(sweep="feedc0de" * 4, job_seq=3, worker="w1"):
            with start_run("trial", design="unison",
                           workload="Web Search") as run:
                with run.span("measure") as span:
                    span.add("windows", 2)
                run.counter("accesses", 1000)
                run.event("window", index=0, measured=1)
                run_id = run.run_id

        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            row = ledger.run(run_id)
            assert row["kind"] == "trial"
            assert row["design"] == "unison"
            assert row["sweep"] == "feedc0de" * 4
            assert row["job_seq"] == 3
            assert row["status"] == "ok"
            phases = ledger.phases_for([run_id])
            assert "measure" in phases
            metrics = ledger.metrics_for([run_id])
            assert metrics["accesses"] == 1000
            assert metrics["accesses_per_sec"] > 0

        path = find_manifest(obs_on, run_id)
        assert path is not None
        lines = read_manifest(path)
        kinds = [line.get("event") for line in lines]
        assert kinds[0] == "start"
        assert "window" in kinds
        assert kinds[-1] == "end"

    def test_failed_run_records_error_status(self, obs_on):
        with pytest.raises(RuntimeError):
            with start_run("trial", design="unison") as run:
                run_id = run.run_id
                raise RuntimeError("boom")
        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            row = ledger.run(run_id)
            assert row["status"] == "error"
            assert "boom" in row["error"]

    def test_query_root_ignores_enable_switch(self, obs_on, monkeypatch):
        enabled_root = query_root()
        monkeypatch.delenv("REPRO_TELEMETRY")
        assert query_root() == enabled_root

    def test_profile_artifact_is_loadable(self, obs_on, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with maybe_profile("unit-test") as artifact:
            sum(range(10_000))
        assert artifact is not None and artifact.is_file()
        import pstats

        stats = pstats.Stats(str(artifact))
        assert stats.total_calls >= 1


# --------------------------------------------------------------------- #
# The ledger itself
# --------------------------------------------------------------------- #
class TestTraceGeneration:
    def test_store_miss_records_generation_beside_the_load(self, obs_on):
        """A trace-store miss times generation inside ``trace_load`` and
        counts the accesses generated; a later hit records neither."""
        from repro.sim.executor import clear_caches

        trial = tiny_spec().trials()[0]
        sweeps = ("a1" * 16, "b2" * 16)
        for sweep in sweeps:
            clear_caches()
            with job_context(sweep=sweep, job_seq=0, worker="w1"):
                run_trial(trial)

        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            (miss,), (hit,) = (
                [row["run_id"] for row in ledger.resolve(sweep)[1]]
                for sweep in sweeps)
            miss_phases = ledger.phases_for([miss])
            miss_metrics = ledger.metrics_for([miss])
            hit_phases = ledger.phases_for([hit])
            hit_metrics = ledger.metrics_for([hit])

        assert miss_phases["trace_generate"][1] == 1
        assert 0 < miss_phases["trace_generate"][0] \
            <= miss_phases["trace_load"][0]
        assert miss_metrics["generated_accesses"] == 2000
        assert miss_metrics["trace_store_writes"] == 1
        assert "trace_generate" not in hit_phases
        assert "trace_load" in hit_phases
        assert "generated_accesses" not in hit_metrics
        assert hit_metrics["trace_store_hits"] == 1


class TestRunLedger:
    def test_schema_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            with ledger._conn:
                ledger._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(LEDGER_SCHEMA_VERSION + 1),),
                )
        with pytest.raises(ValueError, match="schema"):
            RunLedger(path)

    def _record(self, ledger, run_id, sweep=None, accesses=0.0,
                measure=0.0):
        ledger.record_run({
            "run_id": run_id, "kind": "trial", "started_at": 1.0,
            "finished_at": 2.0, "wall_seconds": 1.0, "status": "ok",
            "labels": {"sweep": sweep},
            "phases": {"measure": (measure, 1, None)},
            "metrics": {"accesses": accesses,
                        "trace_store_hits": 3, "trace_store_misses": 1},
        })

    def test_resolve_run_sweep_ambiguous_and_missing(self, tmp_path):
        with RunLedger(tmp_path / "l.sqlite") as ledger:
            self._record(ledger, "aaa-1", sweep="feed01")
            self._record(ledger, "aaa-2", sweep="feed01")
            self._record(ledger, "bbb-1", sweep="0ther")
            assert ledger.resolve("bbb")[0] == "run"
            scope, rows = ledger.resolve("feed")
            assert scope == "sweep" and len(rows) == 2
            with pytest.raises(ValueError, match="ambiguous"):
                ledger.resolve("aaa")
            with pytest.raises(KeyError):
                ledger.resolve("zzz")

    def test_resolve_sweep_prefix_is_exact_and_unique(self, tmp_path):
        with RunLedger(tmp_path / "l.sqlite") as ledger:
            for run_id, sweep in (("r-1", "ab11"), ("r-2", "ab11"),
                                  ("s-1", "ac22"), ("s-2", "ac22")):
                self._record(ledger, run_id, sweep=sweep)
            scope, rows = ledger.resolve("ab")
            assert scope == "sweep"
            assert {row["run_id"] for row in rows} == {"r-1", "r-2"}
            # A prefix of two sweeps is ambiguous, not their union.
            with pytest.raises(ValueError, match="ambiguous sweep prefix"):
                ledger.resolve("a")
            # Case-sensitive, and LIKE wildcards match only themselves.
            for ref in ("A", "AB", "a_", "a%", "%", "_"):
                with pytest.raises(KeyError):
                    ledger.resolve(ref)
            with pytest.raises(ValueError, match="empty"):
                ledger.resolve("")
            assert [row["run_id"] for row in ledger.runs(sweep="ab")] \
                == ["r-2", "r-1"]
            assert ledger.runs(sweep="A") == []
            assert ledger.runs(sweep="a_") == []

    def test_runs_show_does_not_merge_sweeps(self, obs_on, capsys):
        from repro.cli import main

        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            for run_id, sweep in (("r-1", "ab11"), ("s-1", "ac22")):
                self._record(ledger, run_id, sweep=sweep)
        assert main(["runs", "show", "a"]) == 1
        assert "ambiguous sweep prefix" in capsys.readouterr().err
        assert main(["runs", "show", "A"]) == 1
        assert "no run or sweep" in capsys.readouterr().err
        assert main(["runs", "show", "ab"]) == 0
        out = capsys.readouterr().out
        assert "sweep ab11" in out and "runs: 1 " in out

    def test_summarize_recomputes_rates_from_sums(self, tmp_path):
        with RunLedger(tmp_path / "l.sqlite") as ledger:
            self._record(ledger, "r1", sweep="s", accesses=1000, measure=2.0)
            self._record(ledger, "r2", sweep="s", accesses=3000, measure=2.0)
            _, rows = ledger.resolve("s")
            summary = summarize(ledger, rows)
        assert summary["runs"] == 2
        assert summary["accesses_per_sec"] == pytest.approx(1000.0)
        assert summary["trace_store_hit_rate"] == pytest.approx(6 / 8)
        # Summed per-run rates are dropped, not reported as metrics.
        assert "accesses_per_sec" not in summary["metrics"]

    def test_heartbeat_upsert_preserves_missing_fields(self, tmp_path):
        with RunLedger(tmp_path / "l.sqlite") as ledger:
            ledger.heartbeat("w1", status="running", job_seq=7,
                             job_kind="trial")
            ledger.heartbeat("w1", status="idle")
            row = ledger.heartbeats()[0]
            assert row["status"] == "idle"
            assert row["job_seq"] == 7  # untouched by the second upsert
            ledger.heartbeat("w1", status="exited")
            assert ledger.heartbeats() == []
            assert len(ledger.heartbeats(include_exited=True)) == 1


# --------------------------------------------------------------------- #
# Queue integration: ledger from a queued sampled sweep, queue events
# --------------------------------------------------------------------- #
class TestQueueTelemetry:
    def test_queued_sampled_sweep_populates_ledger(self, obs_on, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "queue"))
        service = SweepService()
        spec = sampled_spec()
        token = service.submit(spec).token
        service.run(spec)

        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            scope, rows = ledger.resolve(token)
            assert scope == "sweep"
            kinds = {row["kind"] for row in rows}
            assert "windows" in kinds and "assemble" in kinds
            assert all(row["status"] == "ok" for row in rows)
            # Window jobs carry their job_seq from the worker's context.
            assert any(row["job_seq"] is not None for row in rows
                       if row["kind"] == "windows")
            summary = summarize(ledger, rows)
            heartbeats = ledger.heartbeats(include_exited=True)

        for phase in ("trace_load", "warmup", "measure", "assemble"):
            assert phase in summary["phases"], phase
        assert summary["accesses_per_sec"] > 0
        assert "checkpoint_hit_rate" in summary
        assert heartbeats and heartbeats[0]["jobs_done"] >= 1

    def test_backoff_failed_and_reclaim_events_reach_ledger(self, obs_on,
                                                            tmp_path):
        def one_job():
            return [PlannedJob(key="k0", trial_index=0, part=0, kind="windows",
                               trace_group="g", payload=b"p")]

        now = 1000.0
        with JobStore(tmp_path / "jobs.sqlite") as store:
            # Sweep 1: one job failed twice -> backoff, then permanent.
            store.submit("sweep-retry", "desc", None, one_job(),
                         max_attempts=2)
            job = store.lease("w1", 60.0, now=now)
            store.fail(job.sweep, job.seq, "first failure", "w1", now=now)
            job = store.lease("w1", 60.0, now=now + 3600)  # past backoff
            store.fail(job.sweep, job.seq, "second failure", "w1",
                       now=now + 3600)
            # Sweep 2: a lease left to expire, reclaimed by recover().
            store.submit("sweep-lost", "desc", None, one_job())
            store.lease("w2", 60.0, sweep="sweep-lost", now=now)
            store.recover(now=now + 7200, reclaim_dead=False)

        with RunLedger(obs_on / "ledger.sqlite") as ledger:
            events = ledger.events_for(limit=50)
            kinds = {row["kind"] for row in events}
            reclaimed = [row for row in events
                         if row["kind"] == "lease_reclaimed"]
        assert "job_backoff" in kinds
        assert "job_failed" in kinds
        assert reclaimed and reclaimed[0]["sweep"] == "sweep-lost"


# --------------------------------------------------------------------- #
# CLI views
# --------------------------------------------------------------------- #
class TestCli:
    def _drain_tiny_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "queue"))
        service = SweepService()
        spec = tiny_spec()
        token = service.submit(spec).token
        service.run(spec)
        return token

    def test_queue_status_json_machine_readable(self, obs_on, tmp_path,
                                                monkeypatch, capsys):
        from repro.cli import main

        token = self._drain_tiny_sweep(tmp_path, monkeypatch)
        assert main(["queue", "status", token, "--json", "--jobs"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["token"] == token
        assert data["counts"]["done"] == data["total"]
        assert data["timing"]["jobs_timed"] == data["total"]
        job = data["jobs"][0]
        assert job["state"] == "done"
        assert job["run_seconds"] > 0
        assert job["attempts"] == 1

        assert main(["queue", "status", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["sweeps"][0]["token"] == token

    def test_queue_status_jobs_renders_hidden_fields(self, obs_on, tmp_path,
                                                     monkeypatch, capsys):
        from repro.cli import main

        token = self._drain_tiny_sweep(tmp_path, monkeypatch)
        assert main(["queue", "status", token, "--jobs"]) == 0
        out = capsys.readouterr().out
        assert "seq" in out and "seconds" in out

    def test_runs_list_show_and_compare(self, obs_on, tmp_path, monkeypatch,
                                        capsys):
        from repro.cli import main

        token = self._drain_tiny_sweep(tmp_path, monkeypatch)
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        # A queued full-replay cell runs as its one-window job.
        assert "windows" in out and token[:8] in out

        assert main(["runs", "show", token]) == 0
        out = capsys.readouterr().out
        assert "accesses_per_sec" in out
        for phase in ("trace_load", "warmup", "measure"):
            assert phase in out

        assert main(["runs", "show", token, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scope"] == "sweep"
        assert data["summary"]["runs"] >= 1

        assert main(["runs", "compare", token, token]) == 0
        assert "wall_seconds" in capsys.readouterr().out

    def test_runs_show_unknown_ref_fails_cleanly(self, obs_on, capsys):
        from repro.cli import main

        with RunLedger(Path(query_root()) / "ledger.sqlite"):
            pass  # materialize an empty ledger
        assert main(["runs", "show", "nonexistent"]) == 1
        assert "no run or sweep" in capsys.readouterr().err

    def test_top_renders_heartbeats(self, obs_on, tmp_path, monkeypatch,
                                    capsys):
        from repro.cli import main

        self._drain_tiny_sweep(tmp_path, monkeypatch)
        with RunLedger(Path(query_root()) / "ledger.sqlite") as ledger:
            ledger.heartbeat("w-live", status="running", job_seq=1,
                             job_kind="trial", jobs_done=2,
                             jobs_per_second=0.5)
        assert main(["top"]) == 0
        out = capsys.readouterr().out
        assert "w-live" in out and "running" in out

    def test_sample_telemetry_flag_records_run(self, obs_on, tmp_path,
                                               monkeypatch, capsys):
        from repro.cli import main

        code = main(["sample", "--telemetry", "--designs", "unison",
                     "--capacity", "512MB", "--accesses", "6000",
                     "--scale", "4096", "--windows", "4", "--quiet"])
        assert code == 0
        capsys.readouterr()
        with RunLedger(Path(query_root()) / "ledger.sqlite") as ledger:
            rows = ledger.runs(limit=5, kind="trial")
            assert rows
            phases = ledger.phases_for([rows[0]["run_id"]])
        assert "measure" in phases
