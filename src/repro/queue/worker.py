"""Worker loop: lease jobs from a :class:`JobStore`, run them, stream results.

A worker is any process that calls :func:`work` on a shared job store --
the in-process drain of ``SweepService.run(workers=1)``, the forked
processes of ``workers=N``, or completely independent ``repro queue work``
commands started by hand on the same machine.  All coordination happens
through the SQLite file: there is no master process, so adding a worker is
just starting one and losing a worker costs only the job it was holding.

The loop is deliberately boring:

1. Reclaim orphaned leases (dead local PIDs immediately, expired leases
   otherwise), so a worker started after a ``kill -9`` makes the lost jobs
   runnable before its first lease attempt.
2. Lease one job, preferring the trace group of the previous job so a
   worker that paid to materialize one trace keeps replaying it.  The store
   holds back a sampled trial's sibling window jobs while its first job is
   still warming the prologue (:meth:`JobStore.lease`), so each prologue is
   warmed once and then loaded from the checkpoint store.
3. Execute the pickled payload -- a batch of a trial's planned measurement
   windows (a full replay's one window, or several of a sampled trial's)
   via :func:`repro.sim.executor.run_trial_windows`.
4. Report ``complete`` (owner-guarded, so a stolen lease makes the late
   completion a harmless no-op) or ``fail`` (retries with backoff until the
   job's attempts are exhausted), then wake the other workers through the
   :class:`WakeSignal` if there is one.  The finished measurements wait in
   the job row until the sweep is assembled and archived.

When a lease comes back empty while other workers still hold jobs, a
draining worker waits for the next completion: on its :class:`WakeSignal`,
one of a group ``SweepService`` builds for the workers it forks, for at
most ``poll_seconds``.  Independent ``repro queue work`` processes share no
signal and simply re-poll every ``poll_seconds``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.obs.core import emit_event, job_context
from repro.obs.heartbeat import worker_heartbeat
from repro.queue.jobstore import Job, JobStore, default_owner

PathLike = Union[str, Path]

#: The longest an idle draining worker waits before re-polling the store.
DEFAULT_POLL_SECONDS = 0.2


class WakeSignal:
    """One worker's share of completion wake-ups among forked workers.

    Each worker of a group owns one counting semaphore.  :meth:`notify`
    posts every *other* member's semaphore; :meth:`wait` takes the caller's
    own, for at most ``timeout``, then drains the posts that piled up while
    it was busy.  A completion that lands between an empty lease and the
    wait has already posted, so the wait returns at once and no wake-up is
    lost.  A post never blocks and no lock is shared between processes, so
    a member killed at any point -- mid-wait included -- costs the others
    nothing.  Build the group with :meth:`group` before forking and hand
    one member to each worker.
    """

    def __init__(self, semaphores: Sequence, index: int) -> None:
        self._semaphores = semaphores
        self._index = index

    @classmethod
    def group(cls, size: int) -> List["WakeSignal"]:
        semaphores = [multiprocessing.Semaphore(0) for _ in range(size)]
        return [cls(semaphores, index) for index in range(size)]

    def notify(self) -> None:
        for index, semaphore in enumerate(self._semaphores):
            if index != self._index:
                semaphore.release()

    def wait(self, timeout: float) -> None:
        """Block until another member notifies, or ``timeout`` passes."""
        own = self._semaphores[self._index]
        if own.acquire(timeout=timeout):
            while own.acquire(block=False):
                pass


def execute_job(payload: bytes) -> bytes:
    """Run one job payload; returns the pickled result blob.

    Payloads are self-contained ``{"kind": "windows", "trial":
    ExperimentSpec, "indices": [...]}`` pickles, so any process with the
    package importable can execute any job -- workers need no sweep-level
    context.
    """
    from repro.sim.executor import run_trial_windows

    data = pickle.loads(payload)
    if data["kind"] != "windows":
        raise ValueError(f"unknown job kind {data['kind']!r}")
    result = run_trial_windows(data["trial"], data["indices"])
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def work(db_path: PathLike,
         owner: Optional[str] = None,
         sweep: Optional[str] = None,
         lease_seconds: float = 300.0,
         max_jobs: Optional[int] = None,
         poll_seconds: float = DEFAULT_POLL_SECONDS,
         drain: bool = True,
         throttle: float = 0.0,
         on_job: Optional[Callable[[Job], None]] = None,
         wake: Optional[WakeSignal] = None) -> int:
    """Lease and run jobs until there is nothing left; returns jobs run.

    With ``drain`` (the default) the worker keeps polling while *other*
    workers still hold unfinished jobs -- those jobs may fail and need a
    retry, or may be warming a prologue that held jobs wait for -- and
    exits once every job of its scope is done or failed.  Between polls it
    waits on ``wake`` (posted by the other members' completions) or
    sleeps, for at most ``poll_seconds``.  Without ``drain``, the worker
    exits on the first empty lease, also when held window jobs remain.
    ``throttle`` sleeps after each job (test pacing); ``max_jobs`` bounds
    the loop.
    """
    owner = default_owner() if owner is None else owner
    executed = 0
    last_group: Optional[str] = None
    heartbeat = worker_heartbeat(owner, sweep=sweep)
    try:
        with JobStore(db_path) as store:
            store.recover(sweep=sweep)
            while max_jobs is None or executed < max_jobs:
                job = store.lease(owner, lease_seconds, sweep=sweep,
                                  prefer_group=last_group)
                if job is None:
                    if not drain or store.unfinished(sweep) == 0:
                        break
                    heartbeat.idle()
                    if wake is None:
                        time.sleep(poll_seconds)
                    else:
                        wake.wait(poll_seconds)
                    store.recover(sweep=sweep)
                    continue
                last_group = job.trace_group
                heartbeat.leased(job)
                ok = True
                # Runs the job opens (trial / window-batch telemetry) are
                # correlated to this sweep, job, and worker in the ledger.
                with job_context(sweep=job.sweep, job_seq=job.seq,
                                 worker=owner):
                    try:
                        result_blob = execute_job(job.payload)
                    except Exception:
                        ok = False
                        store.fail(job.sweep, job.seq,
                                   traceback.format_exc(limit=20), owner)
                    else:
                        if not store.complete(job.sweep, job.seq,
                                              result_blob, owner):
                            # The lease expired mid-run and another worker
                            # reclaimed (and will redo) the job; our
                            # deterministic result is discarded.  Silent
                            # until now -- record it so stolen-lease no-ops
                            # are diagnosable.
                            emit_event("lease_theft", sweep=job.sweep,
                                       seq=job.seq, owner=owner,
                                       attempts=job.attempts)
                if wake is not None:
                    wake.notify()
                heartbeat.finished(ok)
                executed += 1
                if on_job is not None:
                    on_job(job)
                if throttle > 0:
                    time.sleep(throttle)
    finally:
        heartbeat.exited()
    return executed


__all__ = ["DEFAULT_POLL_SECONDS", "WakeSignal", "execute_job", "work"]
