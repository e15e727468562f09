"""SweepService: plan, run, resume, and archive durable sweeps.

The service is the glue between the declarative layer
(:class:`~repro.sim.spec.SweepSpec`), the durable queue
(:class:`~repro.queue.jobstore.JobStore`), the worker loops
(:mod:`repro.queue.worker`), and the persistent
:class:`~repro.queue.archive.ResultArchive`:

1. **Plan.**  Every trial becomes idempotent window jobs, one per batch of
   its planned measurement windows: a full-replay trial is the one-window
   plan, so one job, and a sampled trial spreads over several workers.
   Jobs are keyed by the trial's full identity
   (:meth:`~repro.sim.spec.ExperimentSpec.identity`) and window indices,
   and labelled by trace token for affinity scheduling
   (:func:`_trace_group`).
2. **Run.**  Workers -- in-process, forked, or entirely separate ``repro
   queue work`` processes on the same store -- lease jobs, execute them, and
   stream results back.  A worker killed mid-job costs only that job's
   lease.
3. **Assemble.**  Finished rows reassemble in exact grid order into a
   :class:`~repro.sim.resultset.ResultSet` that is bit-identical to the
   serial ``SweepExecutor(workers=1)`` run -- a full-replay trial's result
   is its one window, and sampled trials run the same stop walk as the
   serial sampler, looking windows up in their finished batches, and
   discard speculative windows past the termination point.
4. **Archive.**  Every assembled sweep is written, trial by trial, to the
   schema-versioned result archive, so re-running a sweep whose token is
   already archived costs zero simulation.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.obs.core import start_run
from repro.queue.archive import ResultArchive
from repro.queue.jobstore import (
    DEFAULT_MAX_ATTEMPTS,
    FAILED,
    JobStore,
    PlannedJob,
    error_summary,
)
from repro.sim.executor import assemble_sampled_trial, sampled_window_plan
from repro.sim.resultset import ResultSet
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.trace.store import trace_token

PathLike = Union[str, Path]

#: Environment variable overriding the queue directory (job store +
#: result archive live side by side in it).
ENV_QUEUE_DIR = "REPRO_QUEUE_DIR"

#: Windows measured per window-batch job.  Small enough that a sampled
#: trial spreads over several workers, large enough that per-job overhead
#: (lease round-trip, checkpoint restore) stays amortized.
DEFAULT_WINDOW_BATCH = 4

JOB_STORE_FILENAME = "jobs.sqlite"
ARCHIVE_FILENAME = "archive.sqlite"


class SweepFailedError(RuntimeError):
    """A sweep has permanently failed jobs.

    The message is one line: each failed job (up to three) with its trial
    and exception summary.  The full tracebacks stay in the job rows.
    """


def default_queue_dir() -> Optional[Path]:
    """The queue directory: ``REPRO_QUEUE_DIR``, else next to the traces.

    Placing it inside the trace store root means the same
    ``REPRO_TRACE_STORE`` switch that isolates or relocates trace caching
    (tests point it at a temp directory) governs the queue too; ``None``
    when the trace store is disabled and no explicit directory is set.
    """
    value = os.environ.get(ENV_QUEUE_DIR, "").strip()
    if value:
        return Path(value)
    from repro.trace.store import configured_root

    root = configured_root()
    return None if root is None else root / "queue"


#: Why there is no queue directory when :func:`default_queue_dir` is None.
NO_QUEUE_DIR = ("no queue directory: the trace store is disabled "
                "(REPRO_TRACE_STORE) and neither REPRO_QUEUE_DIR nor an "
                "explicit path was given")


def _require_queue_dir(queue_dir: Optional[PathLike]) -> Path:
    path = Path(queue_dir) if queue_dir is not None else default_queue_dir()
    if path is None:
        raise ValueError(NO_QUEUE_DIR)
    return path


def _chunk(values: Sequence[int], size: int) -> List[List[int]]:
    return [list(values[start:start + size])
            for start in range(0, len(values), size)]


def _trace_group(trial: ExperimentSpec) -> str:
    """The trial's trace-affinity label: jobs with one label replay one trace.

    The label hashes the trial's trace token, so it stays stable across
    processes and sessions.
    """
    token = trace_token(trial.workload, trial.config)
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]


def _estimate_costs(plan: SweepPlan) -> List[PlannedJob]:
    """The plan's jobs, each with the cost estimate the store leases by.

    A job's estimate is 1 when its trial's design runs on the scalar engine
    (no batch kernel covers it), decided the way the engine decides it, on
    a built design (:func:`repro.engine.batch.fallback_reason`); each
    distinct build is made once.  The estimate orders leases only; it
    enters no key, ``seq`` or token.
    """
    from repro.engine.batch import fallback_reason
    from repro.sim.factory import make_design

    trials = plan.spec.trials()
    scalar_by_build: Dict[tuple, int] = {}
    jobs = []
    for job in plan.jobs:
        trial = trials[job.trial_index]
        build = (trial.design, trial.capacity, trial.config.scale,
                 trial.config.num_cores, trial.associativity)
        if build not in scalar_by_build:
            design = make_design(trial.design, trial.capacity,
                                 scale=trial.config.scale,
                                 num_cores=trial.config.num_cores,
                                 associativity=trial.associativity)
            scalar_by_build[build] = int(fallback_reason(design) is not None)
        jobs.append(replace(job, cost_scalar=scalar_by_build[build]))
    return jobs


def _job_key(trial: ExperimentSpec, indices: Sequence[int]) -> str:
    payload = trial.identity() + f"|kind=windows|windows={tuple(indices)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepPlan:
    """A sweep compiled into durable jobs."""

    token: str
    spec: SweepSpec
    jobs: "List[PlannedJob]"

    @property
    def total_jobs(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class SubmitOutcome:
    """What :meth:`SweepService.submit` did."""

    token: str
    new_jobs: int
    total_jobs: int
    total_trials: int

    @property
    def reused_jobs(self) -> int:
        return self.total_jobs - self.new_jobs


def _check_window_batch(window_batch: int) -> None:
    if window_batch < 1:
        raise ValueError("window_batch must be positive")


def plan_sweep(spec: SweepSpec,
               window_batch: int = DEFAULT_WINDOW_BATCH) -> SweepPlan:
    """Compile a sweep into its job list and deterministic token.

    Every trial's window plan splits into one job per ``window_batch``
    consecutive windows of the measurement order (so an early-terminating
    assembly consumes the first jobs and discards the speculative tail): a
    full-replay trial is one job, window ``(0,)``.  The plan needs the
    trace's length, so a trace file whose header is unreadable or never
    finalized, or a text trace that does not parse, raises here, before
    any job is written.  The sweep token hashes the ordered job keys, so
    the same spec always resubmits to the same sweep -- and any change to
    a design, trace, or parameter yields a new token instead of colliding
    with stale rows.
    """
    _check_window_batch(window_batch)
    jobs: List[PlannedJob] = []
    for trial_index, trial in enumerate(spec.trials()):
        group = _trace_group(trial)
        plan = sampled_window_plan(trial)
        for part, indices in enumerate(_chunk(plan.order, window_batch)):
            payload = pickle.dumps(
                {"kind": "windows", "trial": trial, "indices": indices},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            jobs.append(PlannedJob(
                key=_job_key(trial, indices),
                trial_index=trial_index, part=part, kind="windows",
                trace_group=group, payload=payload,
            ))
    token = hashlib.sha256(
        "|".join(job.key for job in jobs).encode("utf-8")
    ).hexdigest()[:32]
    return SweepPlan(token=token, spec=spec, jobs=jobs)


class SweepService:
    """Durable sweep execution over a shared job store and archive."""

    def __init__(self, queue_dir: Optional[PathLike] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 lease_seconds: float = 300.0,
                 window_batch: int = DEFAULT_WINDOW_BATCH) -> None:
        _check_window_batch(window_batch)
        self.queue_dir = _require_queue_dir(queue_dir)
        self.db_path = self.queue_dir / JOB_STORE_FILENAME
        self.archive_path = self.queue_dir / ARCHIVE_FILENAME
        self.max_attempts = max_attempts
        self.lease_seconds = lease_seconds
        self.window_batch = window_batch

    def store(self) -> JobStore:
        return JobStore(self.db_path)

    def archive(self) -> ResultArchive:
        return ResultArchive(self.archive_path)

    # ------------------------------------------------------------------ #
    def submit(self, spec: SweepSpec) -> SubmitOutcome:
        """Plan a sweep into the job store (idempotent); returns what's new.

        A sweep the store does not hold yet is inserted with each job's cost
        estimate; resubmitting one the store holds (the sweep row and its
        jobs are written in one transaction) estimates nothing.
        """
        plan = plan_sweep(spec, window_batch=self.window_batch)
        spec_blob = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        with self.store() as store:
            jobs = plan.jobs
            if store.sweep_row(plan.token) is None:
                jobs = _estimate_costs(plan)
            new = store.submit(plan.token, spec.describe(), spec_blob,
                               jobs, max_attempts=self.max_attempts)
        with self.archive() as archive:
            archive.register(plan.token, spec.describe(), len(spec.trials()))
        return SubmitOutcome(token=plan.token, new_jobs=new,
                             total_jobs=plan.total_jobs,
                             total_trials=len(spec.trials()))

    def load_spec(self, token: str) -> SweepSpec:
        """The SweepSpec a token was submitted with (stored pickled)."""
        with self.store() as store:
            row = store.sweep_row(token)
        if row is None:
            raise KeyError(f"unknown sweep token {token!r}")
        if row["spec"] is None:
            raise ValueError(f"sweep {token} was submitted without its spec")
        return pickle.loads(row["spec"])

    def status(self, token: str) -> Dict[str, int]:
        with self.store() as store:
            return store.counts(token)

    # ------------------------------------------------------------------ #
    def assemble(self, spec: SweepSpec,
                 token: Optional[str] = None) -> ResultSet:
        """Reassemble a finished sweep's jobs in exact grid order.

        Raises ``RuntimeError`` while jobs are outstanding, and
        :class:`SweepFailedError` when any failed for good.  Every trial's
        result is written to the archive as a side effect, and the archived
        copy is authoritative: a token whose archive row set is already
        complete assembles straight from the archive without touching job
        payloads.
        """
        plan = plan_sweep(spec, window_batch=self.window_batch)
        if token is not None and token != plan.token:
            raise ValueError(
                f"token {token} does not match the spec's plan ({plan.token})"
            )
        with self.archive() as archive:
            archived = archive.get(plan.token)
        if archived is not None:
            return archived

        trials = spec.trials()
        with self.store() as store:
            counts = store.counts(plan.token)
            if counts[FAILED]:
                failures = store.failed_jobs(plan.token)
                detail = "; ".join(
                    f"job {job.seq} (trial {job.trial_index}, "
                    f"{trials[job.trial_index].describe()}): "
                    f"{error_summary(job.error)}"
                    for job in failures[:3]
                )
                raise SweepFailedError(
                    f"sweep {plan.token} has {counts[FAILED]} permanently "
                    f"failed jobs: {detail}"
                )
            done = store.done_jobs(plan.token)
            if len(done) != plan.total_jobs:
                raise RuntimeError(
                    f"sweep {plan.token} is incomplete: {len(done)} of "
                    f"{plan.total_jobs} jobs done"
                )

        by_trial: Dict[int, List] = {}
        for job in done:
            by_trial.setdefault(job.trial_index, []).append(job)
        results = []
        with start_run("assemble", sweep=plan.token, trials=len(trials)), \
                self.archive() as archive:
            for trial_index, trial in enumerate(trials):
                jobs = by_trial.get(trial_index, [])
                if not jobs:
                    raise RuntimeError(
                        f"trial {trial_index} has no finished jobs"
                    )
                measurements: Dict[int, object] = {}
                for job in jobs:
                    measurements.update(pickle.loads(job.result))
                # assemble_sampled_trial attributes its stop walk (and its
                # per-window convergence events) to this run's "assemble"
                # phase via obs.current().
                result = assemble_sampled_trial(trial, measurements)
                archive.put(plan.token, trial_index, result)
                results.append(result)
            archive.mark_complete(plan.token)
        return ResultSet(results)

    # ------------------------------------------------------------------ #
    def run(self, spec: Optional[SweepSpec] = None,
            token: Optional[str] = None,
            workers: Optional[int] = 1,
            progress: Optional[Callable[[int, int, ExperimentSpec], None]] = None,
            ) -> ResultSet:
        """Submit (idempotently), execute to completion, and assemble.

        This is also the *resume* path: re-running the same spec -- or a
        bare token recorded earlier -- picks up whatever the job store
        already holds, reclaims leases of dead workers, executes only the
        jobs that are not done, and reassembles.  A fully archived sweep
        runs zero jobs.  A bare token resumes with the window batch its
        jobs were planned with, whatever this service's ``window_batch``.
        """
        if spec is None:
            if token is None:
                raise ValueError("run needs a spec or a token")
            spec = self.load_spec(token)
            batch = self._stored_window_batch(token)
            if batch != self.window_batch:
                service = SweepService(self.queue_dir, self.max_attempts,
                                       self.lease_seconds, batch)
                return service.run(spec, workers=workers, progress=progress)
        outcome = self.submit(spec)

        with self.archive() as archive:
            archived = archive.get(outcome.token)
        if archived is not None:
            self._fire_progress_all(spec, progress)
            return archived

        with self.store() as store:
            store.recover(sweep=outcome.token)
            unfinished = store.unfinished(outcome.token)
        if unfinished:
            self._execute(outcome.token, spec, workers, unfinished, progress)
        else:
            self._fire_progress_all(spec, progress)
        return self.assemble(spec, token=outcome.token)

    # Resume by token alone (the CLI's ``repro queue resume TOKEN``).
    def resume(self, token: str, workers: Optional[int] = 1,
               progress: Optional[Callable[[int, int, ExperimentSpec], None]] = None,
               ) -> ResultSet:
        return self.run(spec=None, token=token, workers=workers,
                        progress=progress)

    def _stored_window_batch(self, token: str) -> int:
        """Windows per job of a submitted sweep.

        A trial's first job carries its largest batch, so the largest of
        those re-plans every trial into the same jobs and token.
        """
        with self.store() as store:
            jobs = store.jobs(token)
        return max(len(pickle.loads(job.payload)["indices"]) for job in jobs
                   if job.part == 0)

    # ------------------------------------------------------------------ #
    def _fire_progress_all(self, spec: SweepSpec, progress) -> None:
        if progress is None:
            return
        trials = spec.trials()
        for index, trial in enumerate(trials):
            progress(index, len(trials), trial)

    def _execute(self, token: str, spec: SweepSpec, workers: Optional[int],
                 unfinished: int, progress) -> None:
        """Drain the sweep's ``unfinished`` jobs with up to ``workers``."""
        from repro.queue.worker import WakeSignal, work

        if workers is None:
            workers = os.cpu_count() or 1
        reporter = _TrialProgress(token, spec, progress)
        if workers > 1:
            import multiprocessing
            from multiprocessing.connection import wait

            processes = [
                multiprocessing.Process(
                    target=work,
                    args=(self.db_path,),
                    kwargs={
                        "sweep": token,
                        "lease_seconds": self.lease_seconds,
                        "wake": wake,
                    },
                    daemon=True,
                )
                for wake in WakeSignal.group(min(workers, unfinished))
            ]
            for process in processes:
                process.start()
            try:
                running = processes
                while running:
                    reporter.poll(self)
                    wait([process.sentinel for process in running],
                         timeout=0.1)
                    running = [process for process in running
                               if process.is_alive()]
            finally:
                for process in processes:
                    process.join(timeout=30.0)
                    if process.is_alive():
                        process.terminate()
            # Jobs the forked workers left behind (every one of them died)
            # are reclaimed and drained in-process, like ``workers <= 1``.
            with self.store() as store:
                store.recover(sweep=token)
                unfinished = store.unfinished(token)
        if unfinished:
            work(self.db_path, sweep=token,
                 lease_seconds=self.lease_seconds,
                 on_job=lambda job: reporter.poll(self))
        reporter.poll(self)

    def prune(self, token: str) -> int:
        """Drop a sweep's job rows (the archive keeps its results)."""
        with self.store() as store:
            with store._txn() as conn:
                cursor = conn.execute(
                    "DELETE FROM jobs WHERE sweep = ?", (token,)
                )
                conn.execute("DELETE FROM sweeps WHERE token = ?", (token,))
            return cursor.rowcount

    def prune_retention(self, keep_days: float = 7.0,
                        keep_archived: int = 0,
                        now: Optional[float] = None) -> Dict[str, object]:
        """Retention prune: drop job rows of old, fully archived sweeps.

        A sweep's job rows are transient scaffolding once its results are
        archived; this removes exactly that scaffolding and nothing else:

        * only sweeps whose archive row set is **complete** are eligible --
          an unfinished sweep's jobs are its resume state and are never
          touched;
        * ``keep_days`` retains sweeps submitted within the window (0 means
          "age does not protect anything");
        * ``keep_archived`` additionally retains the N most recently
          submitted archived sweeps regardless of age.

        The result archive itself is never modified.  Returns a summary
        dict: pruned tokens, job rows deleted, and what was kept and why.
        """
        if keep_days < 0:
            raise ValueError("keep_days must be non-negative")
        if keep_archived < 0:
            raise ValueError("keep_archived must be non-negative")
        now = time.time() if now is None else now
        cutoff = now - keep_days * 86400.0
        with self.archive() as archive:
            complete = {meta["token"] for meta in archive.list_sweeps()
                        if meta["complete"]}
        with self.store() as store:
            rows = store.sweeps()
        archived_rows = [row for row in rows if row["token"] in complete]
        recent_protected = {
            row["token"]
            for row in sorted(archived_rows, key=lambda r: r["created_at"],
                              reverse=True)[:keep_archived]
        }
        pruned: List[str] = []
        jobs_deleted = 0
        kept_recent = kept_young = 0
        skipped_unarchived = 0
        for row in rows:
            token = row["token"]
            if token not in complete:
                skipped_unarchived += 1
                continue
            if token in recent_protected:
                kept_recent += 1
                continue
            if row["created_at"] > cutoff:
                kept_young += 1
                continue
            jobs_deleted += self.prune(token)
            pruned.append(token)
        return {
            "pruned": pruned,
            "jobs_deleted": jobs_deleted,
            "kept_recent": kept_recent,
            "kept_young": kept_young,
            "skipped_unarchived": skipped_unarchived,
        }


class _TrialProgress:
    """Fires the per-trial progress callback as trials finish."""

    def __init__(self, token: str, spec: SweepSpec, progress) -> None:
        self.token = token
        self.trials = spec.trials()
        self.progress = progress
        self.reported: set = set()

    def poll(self, service: SweepService) -> None:
        if self.progress is None:
            return
        with service.store() as store:
            counts = store.trial_counts(self.token)
        for index in sorted(counts):
            done, total = counts[index]
            if index not in self.reported and done == total:
                self.reported.add(index)
                self.progress(index, len(self.trials), self.trials[index])


__all__ = [
    "ARCHIVE_FILENAME",
    "DEFAULT_WINDOW_BATCH",
    "ENV_QUEUE_DIR",
    "JOB_STORE_FILENAME",
    "NO_QUEUE_DIR",
    "SubmitOutcome",
    "SweepFailedError",
    "SweepPlan",
    "SweepService",
    "default_queue_dir",
    "plan_sweep",
]
