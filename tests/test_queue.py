"""Durable work-queue tests: job store, sweep service, workers, crash resume.

The centerpiece is the acceptance scenario: a worker process SIGKILLed
mid-sweep, after which ``repro queue resume`` picks the sweep up from the
on-disk job store and produces a ResultSet bit-identical to the serial
executor's -- re-executing only the jobs that were in flight when the
worker died.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.queue import (
    DONE,
    FAILED,
    JobStore,
    LEASED,
    PENDING,
    PlannedJob,
    ResultArchive,
    SweepService,
    plan_sweep,
)
from repro.obs.ledger import RunLedger
from repro.queue.worker import WakeSignal, work
from repro.sampling.runner import WindowedSampler
from repro.sampling.windows import SamplingConfig
from repro.sim.executor import (
    SweepExecutor,
    assemble_sampled_trial,
    run_trial,
    run_trial_windows,
    sampled_window_plan,
)
from repro.sim.experiment import ExperimentConfig
from repro.sim.spec import SweepSpec
from repro.workloads import workload_by_name

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def queue_root(tmp_path, monkeypatch):
    """A private trace-store root per test: traces, checkpoints, and queue."""
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
    return tmp_path


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        designs=("unison", "alloy"),
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
        config=ExperimentConfig(scale=2048, num_accesses=12_000),
        sampling=SamplingConfig(window_accesses=400, max_windows=24,
                                min_windows=4),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def planned(n: int) -> list:
    return [
        PlannedJob(key=f"key-{i}", trial_index=i, part=0, kind="windows",
                   trace_group="g", payload=b"payload-%d" % i)
        for i in range(n)
    ]


def window_jobs(parts_per_trial, groups=None) -> list:
    """Window-batch rows: ``parts_per_trial[t]`` jobs for trial ``t``."""
    return [
        PlannedJob(key=f"t{trial}-w{part}", trial_index=trial, part=part,
                   kind="windows",
                   trace_group=(groups or {}).get(trial, "g"),
                   payload=b"p")
        for trial, parts in enumerate(parts_per_trial)
        for part in range(parts)
    ]


def costed_jobs(costs) -> list:
    """Window-batch rows with cost estimates: ``costs[t]`` lists trial
    ``t``'s ``cost_scalar`` per part."""
    return [
        PlannedJob(key=f"t{trial}-w{part}", trial_index=trial, part=part,
                   kind="windows", trace_group="g", payload=b"p",
                   cost_scalar=scalar)
        for trial, parts in enumerate(costs)
        for part, scalar in enumerate(parts)
    ]


@pytest.fixture
def rrip_page_design():
    """An SRRIP design on in-DRAM page tags: no kernel covers it, so it
    warms and replays on the scalar engine."""
    from repro.dramcache.spec import ComponentSpec, DesignSpec
    from repro.sim.registry import DESIGNS

    spec = DesignSpec(name="t-cost-rrip", tags=ComponentSpec("dram-page"),
                      fetch=ComponentSpec("demand"),
                      replacement=ComponentSpec("rrip"))
    DESIGNS.register_spec(spec)
    yield spec.name
    DESIGNS.unregister(spec.name)


def dead_local_owner() -> str:
    """A lease owner naming a local PID that provably exited."""
    child = subprocess.Popen(["sleep", "0"])
    child.wait()
    return f"{socket.gethostname()}:{child.pid}:abc123"


# --------------------------------------------------------------------- #
# JobStore
# --------------------------------------------------------------------- #
class TestJobStore:
    def test_submit_is_idempotent(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            assert store.submit("tok", "d", None, planned(3)) == 3
            assert store.submit("tok", "d", None, planned(3)) == 0
            assert store.counts("tok")[PENDING] == 3

    def test_sweep_filter_is_exact_for_lease_and_counts(self, tmp_path):
        """An empty sweep name selects no sweep in both queries; counting
        every sweep for it left a draining ``work(sweep="")`` waiting
        forever on jobs it could never lease."""
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, planned(2))
            assert store.lease("owner", lease_seconds=60, sweep="") is None
            assert store.unfinished("") == 0
            assert store.unfinished() == 2

    def test_lease_complete_lifecycle(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, planned(1))
            job = store.lease("owner-a", lease_seconds=60)
            assert job is not None and job.state == LEASED
            assert job.attempts == 1
            assert store.lease("owner-b", lease_seconds=60) is None
            assert store.complete("tok", job.seq, b"result", "owner-a")
            done = store.done_jobs("tok")
            assert [j.result for j in done] == [b"result"]
            assert store.unfinished("tok") == 0

    def test_late_completion_after_lease_theft_is_noop(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, planned(1))
            job = store.lease("slow", lease_seconds=0.0)
            theft = store.lease("fast", lease_seconds=60)
            assert theft is not None and theft.attempts == 2
            assert not store.complete("tok", job.seq, b"late", "slow")
            assert store.complete("tok", theft.seq, b"fresh", "fast")
            assert store.done_jobs("tok")[0].result == b"fresh"

    def test_fail_retries_with_backoff_then_fails(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, planned(1), max_attempts=2)
            job = store.lease("w", 60, now=0.0)
            assert store.fail("tok", job.seq, "boom", "w", now=0.0)
            # Back off: not leasable immediately, leasable after the delay.
            assert store.lease("w", 60, now=0.5) is None
            job = store.lease("w", 60, now=10.0)
            assert job is not None and job.attempts == 2
            assert store.fail("tok", job.seq, "boom again", "w", now=10.0)
            assert store.counts("tok")[FAILED] == 1
            assert store.lease("w", 60, now=100.0) is None
            assert "boom again" in store.failed_jobs("tok")[0].error

    def test_recover_returns_expired_leases_to_pending(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, planned(2))
            store.lease("crashed-elsewhere", lease_seconds=5.0, now=0.0)
            assert store.recover(now=1.0, reclaim_dead=False) == 0
            assert store.recover(now=10.0, reclaim_dead=False) == 1
            assert store.counts("tok")[PENDING] == 2

    def test_recover_reclaims_dead_local_owner_immediately(self, tmp_path):
        dead_owner = dead_local_owner()
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, planned(1))
            job = store.lease(dead_owner, lease_seconds=3600.0)
            assert job.state == LEASED
            # The lease is nowhere near expiry, but the owner is dead.
            assert store.recover() == 1
            assert store.counts("tok")[PENDING] == 1

    def test_live_owner_lease_is_not_reclaimed(self, tmp_path):
        live_owner = f"{socket.gethostname()}:{os.getpid()}:abc123"
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, planned(1))
            store.lease(live_owner, lease_seconds=3600.0)
            assert store.recover() == 0
            assert store.counts("tok")[LEASED] == 1

    def test_prefer_group_affinity(self, tmp_path):
        jobs = [
            PlannedJob(key=f"k{i}", trial_index=i, part=0, kind="windows",
                       trace_group=group, payload=b"p")
            for i, group in enumerate(["a", "b", "a"])
        ]
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, jobs)
            first = store.lease("w", 60)
            assert first.trace_group == "a"
            # Seq order would give the "b" job next; affinity skips to "a".
            second = store.lease("w", 60, prefer_group="a")
            assert second.trace_group == "a" and second.trial_index == 2

    def test_schema_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        with JobStore(path) as store:
            store._conn.execute("UPDATE meta SET value = '999'"
                                " WHERE key = 'schema_version'")
            store._conn.commit()
        with pytest.raises(ValueError, match="schema v999"):
            JobStore(path)


class TestPrologueHold:
    """A trial's sibling window jobs wait while its first job warms."""

    @pytest.fixture(autouse=True)
    def checkpoints_on(self, queue_root, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINTS", raising=False)

    def test_live_sibling_lease_holds_window_jobs(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, window_jobs([3, 2]))
            first = store.lease("a", 60)
            assert (first.trial_index, first.part) == (0, 0)
            second = store.lease("b", 60)
            assert (second.trial_index, second.part) == (1, 0)
            assert store.lease("c", 60) is None

    def test_done_sibling_releases_the_hold(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, window_jobs([3]))
            first = store.lease("a", 60)
            assert store.lease("b", 60) is None
            assert store.complete("tok", first.seq, b"r", "a")
            assert store.lease("b", 60).part == 1
            # A done sibling releases the trial even under b's live lease.
            assert store.lease("c", 60).part == 2

    def test_expired_lease_does_not_hold(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            # One attempt: the expired job itself cannot be re-leased, so
            # the next lease shows whether its siblings are held.
            store.submit("tok", "d", None, window_jobs([2]), max_attempts=1)
            store.lease("a", lease_seconds=0.0)
            job = store.lease("b", 60)
            assert job is not None and job.part == 1

    def test_reclaimed_dead_owner_does_not_hold(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, window_jobs([2]))
            first = store.lease(dead_local_owner(), lease_seconds=3600.0)
            assert store.lease("b", 60) is None
            assert store.recover() == 1
            assert store.lease("b", 60).seq == first.seq
            assert store.job("tok", first.seq).lease_owner == "b"

    def test_prefer_group_cannot_bypass_the_hold(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None,
                         window_jobs([2, 1], groups={0: "a", 1: "b"}))
            assert store.lease("w1", 60).trial_index == 0
            job = store.lease("w2", 60, prefer_group="a")
            assert (job.trial_index, job.trace_group) == (1, "b")

    @pytest.mark.parametrize("checkpoints", ["on", "0"])
    def test_first_jobs_lease_first(self, tmp_path, monkeypatch,
                                    checkpoints):
        """Every trial's prologue job leases before any sibling, so a lone
        worker warms all three prologues first, then runs the rest by
        ``seq``."""
        if checkpoints == "0":
            monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, window_jobs([3, 3, 3]))
            order = []
            while (job := store.lease("a", 60)) is not None:
                order.append((job.trial_index, job.part))
                assert store.complete("tok", job.seq, b"r", "a")
            assert order == [(0, 0), (1, 0), (2, 0),
                             (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_nothing_is_held_without_checkpoints(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, window_jobs([2]))
            assert store.lease("a", 60).part == 0
            assert store.lease("b", 60).part == 1


class TestWakeSignal:
    def test_completion_wakes_an_idle_drainer(self, queue_root, monkeypatch):
        import repro.queue.worker as worker_module

        waiting = threading.Event()

        class ObservedWake(WakeSignal):
            def wait(self, timeout):
                waiting.set()
                super().wait(timeout)

        def slow_job(payload):
            # Finish only once the other worker is idle, so the finish is
            # what has to wake it.
            assert waiting.wait(30.0)
            return pickle.dumps(None)

        monkeypatch.setattr(worker_module, "execute_job", slow_job)
        db = queue_root / "jobs.sqlite"
        with JobStore(db) as store:
            store.submit("tok", "d", None, planned(1))
        wakes = dict(zip("ab", ObservedWake.group(2)))
        runs = {}

        def drain(name):
            start = time.perf_counter()
            jobs = work(db, owner=name, sweep="tok", poll_seconds=60.0,
                        wake=wakes[name])
            runs[name] = (jobs, time.perf_counter() - start)

        first = threading.Thread(target=drain, args=("a",))
        first.start()
        deadline = time.time() + 30.0
        while time.time() < deadline:
            with JobStore(db) as store:
                if store.counts("tok")[LEASED]:
                    break
            time.sleep(0.01)
        second = threading.Thread(target=drain, args=("b",))
        second.start()
        first.join(60.0)
        second.join(60.0)
        assert not first.is_alive() and not second.is_alive()
        assert runs["a"][0] == 1 and runs["b"][0] == 0
        assert runs["b"][1] < 10.0

    def test_notify_posts_every_other_member(self):
        first, second, third = WakeSignal.group(3)
        for _ in range(5):
            first.notify()
        # Posts made before the wait are not lost, and one wait drains
        # them all: the next wait blocks until its timeout.
        for member in (second, third):
            start = time.perf_counter()
            member.wait(timeout=30.0)
            assert time.perf_counter() - start < 10.0
            start = time.perf_counter()
            member.wait(timeout=0.2)
            assert time.perf_counter() - start >= 0.15
        # A member's own completions do not wake it.
        start = time.perf_counter()
        first.wait(timeout=0.2)
        assert time.perf_counter() - start >= 0.15

    def test_killed_idle_worker_does_not_stall_the_drain(self, queue_root,
                                                         monkeypatch):
        import repro.queue.worker as worker_module

        monkeypatch.setattr(worker_module, "execute_job",
                            lambda payload: pickle.dumps(None))
        db = queue_root / "jobs.sqlite"
        with JobStore(db) as store:
            store.submit("tok", "d", None, planned(3))
            # A third party holds every job briefly, so the first worker
            # finds nothing to lease and goes idle on its wake-up.
            for _ in range(3):
                store.lease("holder", lease_seconds=1.0)
        expiry = time.time() + 1.0

        class ObservedWake(WakeSignal):
            def wait(self, timeout):
                self.waiting.set()
                super().wait(timeout)

        victim_wake, survivor_wake = ObservedWake.group(2)
        victim_wake.waiting = multiprocessing.Event()
        options = dict(sweep="tok", poll_seconds=60.0)
        victim = multiprocessing.Process(
            target=work, args=(db,), kwargs=dict(options, wake=victim_wake),
            daemon=True)
        survivor = None
        victim.start()
        try:
            assert victim_wake.waiting.wait(30.0)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(30.0)
            time.sleep(max(0.0, expiry - time.time()) + 0.05)
            survivor = multiprocessing.Process(
                target=work, args=(db,),
                kwargs=dict(options, wake=survivor_wake), daemon=True)
            survivor.start()
            survivor.join(60.0)
            assert not survivor.is_alive(), "drain stalled on a dead worker"
            assert survivor.exitcode == 0
        finally:
            for process in (victim, survivor):
                if process is not None and process.is_alive():
                    process.kill()
        with JobStore(db) as store:
            assert store.counts("tok")[DONE] == 3


# --------------------------------------------------------------------- #
# Lease order by cost estimate
# --------------------------------------------------------------------- #
class TestCostOrder:
    """Among first jobs, and among the rest, the costliest leases first."""

    @pytest.fixture(autouse=True)
    def checkpoints_on(self, queue_root, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINTS", raising=False)

    #: Trial 2 runs scalar; trials 0, 1 and 3 tie.
    COSTS = [[0, 0], [0, 0], [1, 1], [0, 0]]

    def test_scalar_first_job_leases_first_and_ties_go_by_seq(
            self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, costed_jobs(self.COSTS))
            order = []
            while (job := store.lease("a", 60)) is not None:
                order.append((job.trial_index, job.part))
                assert store.complete("tok", job.seq, b"r", "a")
            assert order == [(2, 0), (0, 0), (1, 0), (3, 0),
                             (2, 1), (0, 1), (1, 1), (3, 1)]

    def test_siblings_stay_held_until_their_trial_has_a_done_job(
            self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit("tok", "d", None, costed_jobs(self.COSTS))
            first = [store.lease(owner, 60) for owner in "abcd"]
            assert [job.trial_index for job in first] == [2, 0, 1, 3]
            assert store.lease("e", 60) is None
            # Trial 0's prologue is done: its sibling leases, while the
            # costlier scalar trial 2's stays held behind its live lease.
            assert store.complete("tok", first[1].seq, b"r", "b")
            job = store.lease("e", 60)
            assert (job.trial_index, job.part) == (0, 1)
            assert store.lease("f", 60) is None

    def test_v1_store_opens_migrates_and_leases(self, tmp_path):
        import sqlite3

        from repro.queue.jobstore import SCHEMA_VERSION

        path = tmp_path / "jobs.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript(V1_SCHEMA)
        conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        conn.execute("INSERT INTO sweeps VALUES ('tok', 'd', NULL, 4, 0)")
        for seq, (trial, part) in enumerate([(0, 0), (0, 1), (1, 0),
                                             (1, 1)]):
            conn.execute(
                "INSERT INTO jobs (sweep, seq, key, trial_index, part, kind,"
                " trace_group, payload, state, max_attempts, created_at)"
                " VALUES ('tok', ?, ?, ?, ?, 'windows', 'g', x'00',"
                " 'pending', 3, 0)", (seq, f"k{seq}", trial, part))
        conn.commit()
        conn.close()
        # A read-only open does not migrate; its rows read as unestimated.
        with JobStore(path, readonly=True) as store:
            assert [job.cost_scalar for job in store.jobs("tok")] == [0] * 4
        with JobStore(path) as store:
            version = store._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()[0]
            assert int(version) == SCHEMA_VERSION == 2
            order = []
            while (job := store.lease("a", 60)) is not None:
                order.append((job.trial_index, job.part))
                assert store.complete("tok", job.seq, b"r", "a")
            # Unestimated rows tie, so they lease in the v1 order.
            assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]
            assert store.submit("new", "d", None,
                                costed_jobs(self.COSTS)) == 8
            assert store.lease("a", 60).trial_index == 2
        with JobStore(path) as store:  # a second open finds v2
            assert store.counts("tok")[DONE] == 4


#: The jobs table as schema v1 wrote it (before the cost columns).
V1_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE sweeps (token TEXT PRIMARY KEY, description TEXT NOT NULL,
    spec BLOB, total INTEGER NOT NULL, created_at REAL NOT NULL);
CREATE TABLE jobs (
    sweep TEXT NOT NULL, seq INTEGER NOT NULL, key TEXT NOT NULL,
    trial_index INTEGER NOT NULL, part INTEGER NOT NULL, kind TEXT NOT NULL,
    trace_group TEXT NOT NULL, payload BLOB NOT NULL, state TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0, max_attempts INTEGER NOT NULL,
    lease_owner TEXT, lease_expiry REAL NOT NULL DEFAULT 0, result BLOB,
    error TEXT, created_at REAL NOT NULL, started_at REAL,
    finished_at REAL, run_seconds REAL, PRIMARY KEY (sweep, seq));
CREATE UNIQUE INDEX jobs_by_key ON jobs (sweep, key);
CREATE INDEX jobs_by_state ON jobs (state, lease_expiry);
CREATE INDEX jobs_by_trial ON jobs (sweep, trial_index, state);
"""


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #
class TestPlanning:
    def test_plan_token_is_deterministic(self, queue_root):
        spec = tiny_spec()
        assert plan_sweep(spec).token == plan_sweep(spec).token
        other = tiny_spec(config=ExperimentConfig(scale=4096,
                                                  num_accesses=2000, seed=2))
        assert plan_sweep(other).token != plan_sweep(spec).token

    def test_full_replay_trials_plan_one_job_each(self, queue_root):
        plan = plan_sweep(tiny_spec())
        assert [job.kind for job in plan.jobs] == ["windows", "windows"]
        assert [job.trial_index for job in plan.jobs] == [0, 1]
        assert [pickle.loads(job.payload)["indices"]
                for job in plan.jobs] == [[0], [0]]
        assert plan_sweep(tiny_spec(), window_batch=1).token == plan.token

    def test_window_batch_must_be_positive(self, queue_root, capsys):
        from repro.cli import main

        for batch in (0, -1):
            with pytest.raises(ValueError,
                               match="window_batch must be positive"):
                plan_sweep(tiny_spec(), window_batch=batch)
            with pytest.raises(ValueError,
                               match="window_batch must be positive"):
                SweepService(window_batch=batch)
        assert main(["queue", "submit", "--designs", "unison",
                     "--window-batch", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: window_batch must be positive"]
        assert not (queue_root / "queue").exists()

    def test_text_trace_is_planned_up_front(self, queue_root, tmp_path):
        from repro.engine.trace_array import array_to_records
        from repro.sim.experiment import ExperimentRunner
        from repro.trace.io import write_trace

        config = ExperimentConfig(scale=2048, num_accesses=12_000)
        path = tmp_path / "web.trace"
        write_trace(path, array_to_records(ExperimentRunner(config)
                                           .build_trace(workload_by_name(
                                               "Web Search"))))
        spec = sampled_spec(workloads=(f"trace:{path}",))
        per_trial = {}
        for job in plan_sweep(spec).jobs:
            per_trial[job.trial_index] = per_trial.get(job.trial_index, 0) + 1
        assert sorted(per_trial) == [0, 1]
        assert all(count > 1 for count in per_trial.values())
        assert (SweepService().run(spec, workers=2)
                == SweepExecutor(workers=1).run(spec))

    def test_malformed_text_trace_refused_at_plan_time(self, queue_root,
                                                       tmp_path):
        from repro.trace.errors import TraceFormatError

        path = tmp_path / "bad.trace"
        path.write_text("not a trace line\n")
        spec = sampled_spec(workloads=(f"trace:{path}",))
        with pytest.raises(TraceFormatError):
            plan_sweep(spec)
        service = SweepService(max_attempts=2)
        with pytest.raises(TraceFormatError):
            service.run(spec)
        with service.store() as store:
            assert store.sweeps() == []

    def test_non_finalized_binary_trace_refused_at_plan_time(
            self, queue_root, tmp_path):
        from repro.trace.binfmt import BinaryTraceWriter
        from repro.trace.errors import TraceFormatError
        from repro.workloads.generator import SyntheticWorkload

        path = tmp_path / "open.rptr"
        with pytest.raises(RuntimeError):
            with BinaryTraceWriter(path) as writer:
                writer.write_all(SyntheticWorkload(
                    workload_by_name("Web Search"), num_cores=4,
                    seed=1).generate(2000))
                raise RuntimeError("abort")
        spec = sampled_spec(workloads=(f"trace:{path}",))
        with pytest.raises(TraceFormatError, match="non-finalized"):
            plan_sweep(spec)
        service = SweepService(max_attempts=2)
        with pytest.raises(TraceFormatError, match="non-finalized"):
            service.run(spec)
        with service.store() as store:
            assert store.sweeps() == []

    def test_submit_marks_scalar_designs(self, queue_root, rrip_page_design,
                                         monkeypatch):
        spec = tiny_spec(designs=("unison", rrip_page_design))
        service = SweepService()
        token = service.submit(spec).token
        with service.store() as store:
            assert [job.cost_scalar for job in store.jobs(token)] == [0, 1]
        # Planning alone estimates nothing, and the estimate never reaches
        # the keys or token: without the batch engine every design runs
        # scalar, and the same spec submits to the same token.
        assert [job.cost_scalar for job in plan_sweep(spec).jobs] == [0, 0]
        monkeypatch.setenv("REPRO_BATCH", "0")
        other = SweepService(queue_root / "other")
        assert other.submit(spec).token == token
        with other.store() as store:
            assert [job.cost_scalar for job in store.jobs(token)] == [1, 1]

    def test_only_a_new_sweep_builds_its_designs_once_each(
            self, queue_root, monkeypatch):
        import repro.queue.service as service_module
        import repro.sim.factory as factory

        builds, estimates = [], []
        make_design = factory.make_design
        estimate_costs = service_module._estimate_costs

        def counted_build(name, *args, **kwargs):
            builds.append(name)
            return make_design(name, *args, **kwargs)

        def counted_estimate(plan):
            estimates.append(plan.token)
            return estimate_costs(plan)

        monkeypatch.setattr(factory, "make_design", counted_build)
        monkeypatch.setattr(service_module, "_estimate_costs",
                            counted_estimate)
        spec = sampled_spec()
        service = SweepService()
        token = service.submit(spec).token
        # Several window jobs per trial, one build per design.
        assert sorted(builds) == ["alloy", "unison"]
        # Resubmitting, running and assembling estimate nothing again.
        assert service.submit(spec).new_jobs == 0
        service.run(spec)
        service.run(spec)
        assert estimates == [token]

    def test_sampled_trials_decompose_into_window_batches(self, queue_root):
        plan = plan_sweep(sampled_spec())
        kinds = {job.kind for job in plan.jobs}
        assert kinds == {"windows"}
        per_trial = {}
        for job in plan.jobs:
            per_trial[job.trial_index] = per_trial.get(job.trial_index, 0) + 1
        # Each sampled cell spreads over several jobs.
        assert all(count > 1 for count in per_trial.values())


# --------------------------------------------------------------------- #
# SweepService end to end
# --------------------------------------------------------------------- #
class TestSweepService:
    def test_run_matches_serial_bit_identical(self, queue_root):
        spec = tiny_spec()
        serial = SweepExecutor(workers=1).run(spec)
        queued = SweepService().run(spec)
        assert queued == serial

    def test_sampled_run_matches_serial_bit_identical(self, queue_root):
        spec = sampled_spec()
        serial = SweepExecutor(workers=1).run(spec)
        queued = SweepService().run(spec)
        assert queued == serial

    def test_multiworker_run_matches_serial(self, queue_root):
        spec = sampled_spec()
        serial = SweepExecutor(workers=1).run(spec)
        queued = SweepService().run(spec, workers=2)
        assert queued == serial

    def test_executor_queue_parameter_routes_to_service(self, queue_root):
        spec = tiny_spec()
        serial = SweepExecutor(workers=1).run(spec)
        queued = SweepExecutor(workers=1, queue=SweepService()).run(spec)
        assert queued == serial

    def test_resubmitting_completed_sweep_runs_zero_jobs(self, queue_root,
                                                         monkeypatch):
        spec = tiny_spec()
        service = SweepService()
        first = service.submit(spec)
        assert first.new_jobs == first.total_jobs == 2
        service.run(spec)
        again = service.submit(spec)
        assert again.new_jobs == 0

        # Nothing executes on a re-run: poison the executor to prove it.
        import repro.queue.worker as worker_module

        def explode(payload):
            raise AssertionError("a completed sweep must not re-execute jobs")

        monkeypatch.setattr(worker_module, "execute_job", explode)
        rerun = service.run(spec)
        assert rerun == service.assemble(spec)
        with service.store() as store:
            assert all(job.attempts == 1
                       for job in store.done_jobs(first.token))

    def test_progress_fires_once_per_trial(self, queue_root):
        spec = tiny_spec()
        calls = []
        SweepService().run(
            spec, progress=lambda i, n, t: calls.append((i, n)))
        assert sorted(calls) == [(0, 2), (1, 2)]

    def test_progress_fires_under_a_non_default_window_batch(self,
                                                              queue_root):
        spec = sampled_spec(designs=("unison",))
        calls = []
        SweepService(window_batch=1).run(
            spec, workers=1, progress=lambda i, n, t: calls.append((i, n)))
        assert calls == [(0, 1)]

    def test_one_trial_spreads_over_two_workers(self, queue_root):
        spec = sampled_spec(designs=("unison",))
        service = SweepService(window_batch=1)
        queued = service.run(spec, workers=2)
        assert queued == SweepExecutor(workers=1).run(spec)
        with service.store() as store:
            done = store.done_jobs(plan_sweep(spec, window_batch=1).token)
        assert len({job.lease_owner for job in done}) == 2

    def test_two_workers_warm_each_prologue_once(self, queue_root,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(queue_root / "obs"))
        monkeypatch.delenv("REPRO_CHECKPOINTS", raising=False)
        spec = sampled_spec(designs=("unison", "alloy", "footprint"))
        service = SweepService(window_batch=1)
        queued = service.run(spec, workers=2)
        token = plan_sweep(spec, window_batch=1).token
        with RunLedger(queue_root / "obs" / "ledger.sqlite") as ledger:
            rows = ledger.runs(limit=1000, sweep=token, kind="windows")
            metrics = ledger.metrics_for([row["run_id"] for row in rows])
        assert metrics["checkpoint_misses"] == len(spec.trials()) == 3
        assert metrics["checkpoint_saves"] == 3
        serial = SweepExecutor(workers=1).run(spec)
        assert queued.to_json() == serial.to_json()

    def test_archive_roundtrips_resultset(self, queue_root):
        spec = tiny_spec()
        service = SweepService()
        results = service.run(spec)
        token = plan_sweep(spec).token
        with service.archive() as archive:
            assert archive.get(token) == results
            assert archive.count(token) == len(results) == 2

    def test_worker_retries_transient_failure(self, queue_root, monkeypatch):
        import repro.queue.worker as worker_module

        spec = tiny_spec()
        service = SweepService()
        real = worker_module.execute_job
        state = {"failed": False}

        def flaky(payload):
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("transient worker failure")
            return real(payload)

        monkeypatch.setattr(worker_module, "execute_job", flaky)
        results = service.run(spec)
        assert results == SweepExecutor(workers=1).run(spec)
        with service.store() as store:
            attempts = [job.attempts
                        for job in store.done_jobs(plan_sweep(spec).token)]
        assert sorted(attempts) == [1, 2]

    def test_permanent_failure_surfaces_in_assemble(self, queue_root,
                                                    monkeypatch):
        import repro.queue.worker as worker_module

        spec = tiny_spec()
        service = SweepService(max_attempts=1)
        monkeypatch.setattr(
            worker_module, "execute_job",
            lambda payload: (_ for _ in ()).throw(RuntimeError("always")))
        with pytest.raises(RuntimeError, match="permanently failed"):
            service.run(spec)

    def test_resume_by_token_alone(self, queue_root):
        spec = tiny_spec()
        service = SweepService()
        token = service.submit(spec).token
        serial = SweepExecutor(workers=1).run(spec)
        assert service.resume(token) == serial

    def test_resume_by_token_keeps_the_submitted_window_batch(self,
                                                              queue_root):
        spec = sampled_spec(designs=("unison",))
        token = SweepService(window_batch=1).submit(spec).token
        calls = []
        service = SweepService()
        resumed = service.resume(
            token, progress=lambda i, n, t: calls.append((i, n)))
        assert resumed == SweepExecutor(workers=1).run(spec)
        assert calls == [(0, 1)]
        with service.store() as store:
            assert [row["token"] for row in store.sweeps()] == [token]
            assert store.unfinished(token) == 0


# --------------------------------------------------------------------- #
# Window-batch jobs and their reassembly
# --------------------------------------------------------------------- #
class TestWindowReassembly:
    @pytest.fixture
    def trial(self, queue_root):
        return sampled_spec(designs=("unison",)).trials()[0]

    def test_missing_window_before_stop_point_is_named(self, trial):
        plan = sampled_window_plan(trial)
        measurements = run_trial_windows(trial, plan.order)
        missing = plan.order[1]  # every run measures >= min_windows (4)
        del measurements[missing]
        with pytest.raises(ValueError, match=f"window {missing} has no"):
            assemble_sampled_trial(trial, measurements)

    def test_window_index_outside_plan_is_rejected(self, trial, monkeypatch):
        import repro.sampling.runner as runner_module

        builds = []
        monkeypatch.setattr(runner_module, "make_design",
                            lambda *args, **kwargs: builds.append(args))
        plan = sampled_window_plan(trial)
        with pytest.raises(ValueError, match="outside the plan"):
            run_trial_windows(trial, [len(plan.windows)])
        # Refused before any design is built, so before any prologue warms.
        assert builds == []

    def test_compare_measures_what_window_jobs_measure(self, queue_root):
        """The shared-baseline live loop and the per-design job path agree."""
        spec = sampled_spec()
        sampler = WindowedSampler(spec.sampling, config=spec.config)
        profile = workload_by_name("Web Search")
        run = sampler.compare(["unison", "alloy"], profile, "512MB")
        for design in ("unison", "alloy"):
            jobs = sampler.measure_windows(design, profile, "512MB",
                                           run.measured)
            assert ([jobs[index] for index in run.measured]
                    == run.designs[design].windows)


# --------------------------------------------------------------------- #
# kill -9 a worker mid-sweep, then resume
# --------------------------------------------------------------------- #
class TestCrashResume:
    def _spawn_worker(self, root, throttle: float) -> subprocess.Popen:
        env = dict(os.environ, REPRO_TRACE_STORE=str(root),
                   PYTHONPATH=REPO_SRC)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "queue", "work",
             "--throttle", str(throttle)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def test_sigkilled_worker_resumes_bit_identical(self, queue_root):
        spec = sampled_spec()
        serial = SweepExecutor(workers=1).run(spec)

        service = SweepService()
        outcome = service.submit(spec)
        assert outcome.total_jobs >= 4

        worker = self._spawn_worker(queue_root, throttle=0.5)
        try:
            deadline = time.time() + 120.0
            while time.time() < deadline:
                with service.store() as store:
                    counts = store.counts(outcome.token)
                if counts[DONE] >= 1 and counts[DONE] < outcome.total_jobs:
                    break
                assert worker.poll() is None, "worker drained too fast"
                time.sleep(0.02)
            else:
                pytest.fail("worker never completed a job in time")
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.wait()

        with service.store() as store:
            before = {job.seq: job.attempts
                      for job in store.done_jobs(outcome.token)}
        assert before, "at least one job completed before the kill"

        resumed = service.run(spec)
        assert resumed == serial

        with service.store() as store:
            done = store.done_jobs(outcome.token)
            assert len(done) == outcome.total_jobs
            # Jobs finished before the kill were NOT re-executed: their
            # attempt counters are untouched.  Only in-flight jobs may
            # carry an extra (reclaimed) attempt.
            for job in done:
                if job.seq in before:
                    assert job.attempts == before[job.seq]

    def test_cli_resume_after_sigkill(self, queue_root):
        spec = tiny_spec()
        serial = SweepExecutor(workers=1).run(spec)
        service = SweepService()
        token = service.submit(spec).token

        worker = self._spawn_worker(queue_root, throttle=10.0)
        try:
            deadline = time.time() + 120.0
            while time.time() < deadline:
                with service.store() as store:
                    if store.counts(token)[DONE] >= 1:
                        break
                assert worker.poll() is None, "worker drained too fast"
                time.sleep(0.02)
            else:
                pytest.fail("worker never completed a job in time")
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.wait()

        out = queue_root / "resumed.json"
        env = dict(os.environ, REPRO_TRACE_STORE=str(queue_root),
                   PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "queue", "resume", token,
             "--quiet", "--json", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        from repro.sim.resultset import ResultSet

        assert ResultSet.from_json(out) == serial


# --------------------------------------------------------------------- #
# CLI verbs
# --------------------------------------------------------------------- #
class TestQueueCli:
    def test_submit_status_work_resume(self, queue_root, capsys):
        from repro.cli import main

        grid = ["--designs", "unison", "--workloads", "Web Search",
                "--capacities", "512MB", "--scale", "4096",
                "--accesses", "2000"]
        assert main(["queue", "submit"] + grid) == 0
        token = capsys.readouterr().out.split()[1]

        assert main(["queue", "status"]) == 0
        assert token in capsys.readouterr().out

        assert main(["queue", "work"]) == 0
        assert "executed 1 jobs" in capsys.readouterr().out

        assert main(["queue", "status", token]) == 0
        assert "all 1 jobs done" in capsys.readouterr().out

        assert main(["queue", "resume", token, "--quiet"]) == 0
        assert "unison" in capsys.readouterr().out

    def test_work_alias(self, queue_root, capsys):
        from repro.cli import main

        assert main(["work", "--max-jobs", "0"]) == 0
        assert "executed 0 jobs" in capsys.readouterr().out

    def test_status_unknown_token(self, queue_root, capsys):
        from repro.cli import main

        assert main(["queue", "status", "deadbeef"]) == 1


class TestQueueWriteVerbsResolvePrefixes:
    """``resume``, ``prune`` and ``work --sweep`` resolve a sweep ref the
    way the read views do: exact token or unique prefix; an unknown or
    empty ref exits 2 with a one-line error."""

    GRID = ["--designs", "unison", "--workloads", "Web Search",
            "--capacities", "512MB", "--scale", "4096", "--accesses", "2000"]

    @pytest.fixture
    def token(self, queue_root, capsys):
        from repro.cli import main

        assert main(["queue", "submit"] + self.GRID) == 0
        token = capsys.readouterr().out.split()[1]
        return token

    @staticmethod
    def _rejects(argv, capsys, ref):
        from repro.cli import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "executed" not in captured.out
        assert captured.err == f"error: no sweep matches {ref!r}\n"

    def test_work(self, token, capsys):
        from repro.cli import main

        self._rejects(["queue", "work", "--sweep", "deadbeef"], capsys,
                      "deadbeef")
        assert main(["queue", "work", "--sweep", token[:8]]) == 0
        assert "executed 1 jobs" in capsys.readouterr().out

    def test_resume(self, token, capsys):
        from repro.cli import main

        self._rejects(["queue", "resume", "deadbeef", "--quiet"], capsys,
                      "deadbeef")
        assert main(["queue", "resume", token[:8], "--quiet"]) == 0
        assert "unison" in capsys.readouterr().out

    def test_prune(self, token, capsys):
        from repro.cli import main

        # Assembly archives the sweep; only an archived sweep prunes.
        assert main(["queue", "resume", token, "--quiet"]) == 0
        capsys.readouterr()
        self._rejects(["queue", "prune", "deadbeef"], capsys, "deadbeef")
        assert main(["queue", "prune", token[:8]]) == 0
        assert f"  {token}\n" in capsys.readouterr().out
        # Archived but pruned: the prefix resolves, and resume's own
        # lookup error prints as a plain message, not a KeyError repr.
        assert main(["queue", "resume", token[:8], "--quiet"]) == 1
        assert (capsys.readouterr().err
                == f"error: unknown sweep token {token!r}\n")

    def test_empty_ref_is_rejected(self, token, capsys):
        from repro.cli import main

        assert main(["queue", "work", "--sweep", ""]) == 2
        assert capsys.readouterr().err == "error: empty sweep token\n"


# --------------------------------------------------------------------- #
# Parallel sweeps: one private queue, killed workers, failures, cleanup
# --------------------------------------------------------------------- #
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork")
    or not hasattr(os, "fork"),
    reason="fork start method required to inherit monkeypatched functions",
)


@pytest.fixture
def forked_workers_die(monkeypatch):
    """Every forked worker exits hard on its first job; the parent runs."""
    import repro.queue.worker as worker_module

    parent = os.getpid()
    real = worker_module.execute_job

    def execute_or_die(payload):
        if os.getpid() != parent:
            os._exit(1)  # simulate a worker hard-killed mid-job
        return real(payload)

    monkeypatch.setattr(worker_module, "execute_job", execute_or_die)


def _first_trial_raises(monkeypatch):
    """Make trial 0 of :func:`tiny_spec` (unison) raise on every attempt."""
    import repro.queue.jobstore as jobstore_module
    import repro.sim.executor as executor_module

    real = executor_module.run_trial_windows

    def run_or_raise(trial, indices):
        if trial.design == "unison":
            raise RuntimeError("simulated deterministic failure")
        return real(trial, indices)

    monkeypatch.setattr(executor_module, "run_trial_windows", run_or_raise)
    monkeypatch.setattr(jobstore_module, "RETRY_BACKOFF_SECONDS", 0.01)


class TestExecutorCrashTolerance:
    @needs_fork
    def test_executor_survives_every_forked_worker_dying(
            self, queue_root, forked_workers_die):
        spec = tiny_spec()
        serial = SweepExecutor(workers=1).run(spec)
        calls = []
        results = SweepExecutor(
            workers=2, progress=lambda i, n, t: calls.append(i)).run(spec)
        assert results == serial
        assert sorted(calls) == [0, 1]

    @needs_fork
    def test_service_survives_every_forked_worker_dying(
            self, queue_root, forked_workers_die):
        spec = tiny_spec()
        serial = SweepExecutor(workers=1).run(spec)
        calls = []
        results = SweepService(queue_root / "queue").run(
            spec, workers=2, progress=lambda i, n, t: calls.append(i))
        assert results == serial
        assert sorted(calls) == [0, 1]

    @needs_fork
    def test_deterministic_failure_names_the_trial(self, queue_root,
                                                   monkeypatch):
        _first_trial_raises(monkeypatch)
        with pytest.raises(RuntimeError,
                           match=r"permanently failed.*trial 0, unison"):
            SweepExecutor(workers=2).run(tiny_spec())

    def test_parallel_progress_is_completion_driven(self, queue_root):
        spec = tiny_spec(capacities=("256MB", "512MB"))
        calls = []
        results = SweepExecutor(
            workers=2, progress=lambda i, n, t: calls.append((i, n))).run(spec)
        assert len(results) == 4
        assert sorted(calls) == [(0, 4), (1, 4), (2, 4), (3, 4)]


class TestCriticalPathFirst:
    @needs_fork
    def test_scalar_trial_starts_first_and_results_match_serial(
            self, queue_root, rrip_page_design, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINTS", raising=False)
        spec = sampled_spec(designs=("unison", rrip_page_design))
        serial = SweepExecutor(workers=1).run(spec)
        service = SweepService(queue_root / "queue", window_batch=1)
        assert service.run(spec, workers=2) == serial
        with service.store() as store:
            jobs = store.jobs(plan_sweep(spec, window_batch=1).token)
        first = min(jobs, key=lambda job: job.started_at)
        assert (first.trial_index, first.part) == (1, 0)
        assert first.cost_scalar == 1


class TestPrivateQueueCleanup:
    """``workers > 1`` leaves nothing behind in the temporary directory."""

    @pytest.fixture
    def private_tmp(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        return tmp_path

    def test_parallel_run_leaves_tmpdir_empty(self, private_tmp):
        spec = tiny_spec()
        assert SweepExecutor(workers=2).run(spec) == \
            SweepExecutor(workers=1).run(spec)
        assert list(private_tmp.iterdir()) == []

    @needs_fork
    def test_failed_parallel_run_leaves_tmpdir_empty(self, private_tmp,
                                                     monkeypatch):
        _first_trial_raises(monkeypatch)
        with pytest.raises(RuntimeError, match="permanently failed"):
            SweepExecutor(workers=2).run(tiny_spec())
        assert list(private_tmp.iterdir()) == []


# --------------------------------------------------------------------- #
# Satellite: shared trace+checkpoint GC budget
# --------------------------------------------------------------------- #
class TestSharedGc:
    def test_combined_lru_eviction_across_both_stores(self, tmp_path):
        from repro.sampling.checkpoints import CheckpointStore, shared_gc
        from repro.trace.store import TraceStore

        store = TraceStore(root=tmp_path, max_bytes=None)
        checkpoints = CheckpointStore(tmp_path / "checkpoints")
        checkpoints.root.mkdir(parents=True)

        old_trace = tmp_path / "old.rptr"
        old_trace.write_bytes(b"x" * 100)
        os.utime(old_trace, (1000, 1000))
        old_ckpt = checkpoints.root / "old.ckpt"
        old_ckpt.write_bytes(b"y" * 100)
        os.utime(old_ckpt, (2000, 2000))
        new_ckpt = checkpoints.root / "new.ckpt"
        new_ckpt.write_bytes(b"z" * 100)
        os.utime(new_ckpt, (3000, 3000))

        freed = shared_gc(store, checkpoints, max_bytes=150)
        # LRU across BOTH kinds: the old trace and the old checkpoint go,
        # the newest checkpoint stays.
        assert not old_trace.exists()
        assert not old_ckpt.exists()
        assert new_ckpt.exists()
        assert freed["trace_freed"] == 100
        assert freed["checkpoint_freed"] == 100

    def test_none_budget_only_sweeps_garbage(self, tmp_path):
        from repro.sampling.checkpoints import CheckpointStore, shared_gc
        from repro.trace.store import TraceStore

        store = TraceStore(root=tmp_path, max_bytes=None)
        checkpoints = CheckpointStore(tmp_path / "checkpoints")
        checkpoints.root.mkdir(parents=True)
        keeper = checkpoints.root / "keep.ckpt"
        keeper.write_bytes(b"k" * 50)
        stale = checkpoints.root / "stale.ckpt.tmp"
        stale.write_bytes(b"t" * 70)

        freed = shared_gc(store, checkpoints, max_bytes=None)
        assert keeper.exists()
        assert not stale.exists()
        assert freed["checkpoint_freed"] == 70

    def test_store_info_reports_both_stores(self, queue_root, capsys):
        from repro.cli import main

        assert main(["trace", "store", "info"]) == 0
        out = capsys.readouterr().out
        assert "traces:" in out
        assert "checkpoints:" in out
        assert "shared across traces and checkpoints" in out
