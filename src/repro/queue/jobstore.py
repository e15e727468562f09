"""SQLite-backed durable job store for sweep execution.

A :class:`JobStore` is the on-disk heart of the work-queue architecture:
every batch of a sweep cell's measurement windows (a full-replay cell's
one window, or several of a sampled cell's) becomes one
schema-versioned row that survives worker crashes, process kills, and
machine reboots.  The row's lifecycle is::

    pending --lease--> leased --complete--> done
       ^                  |
       |                  +--fail (attempts < max)--> pending (backoff)
       |                  +--fail (attempts = max)--> failed
       +--recover (lease expired / owner dead)-------+

Design points:

* **Idempotent submission.**  Jobs are keyed by the trial's full identity
  (:meth:`repro.sim.spec.ExperimentSpec.identity`: design spec token, trace
  identity, build parameters, model behavior version) so re-submitting a
  sweep inserts only rows that do not already exist -- a completed sweep
  re-submits as zero new jobs, and its archived results are reused as-is.
* **Crash-safe leasing.**  A worker *leases* a job for a bounded time;
  completing the job requires still holding the lease.  A worker that dies
  mid-job simply lets the lease expire (or is detected as a dead local
  process), after which :meth:`recover` returns the job to ``pending`` --
  so a ``kill -9`` costs only the jobs that were in flight.
* **Concurrency without a server.**  Immediate transactions on the shared
  file (:mod:`repro.utils.sqlstore` says how every store opens) give
  atomic lease handoff between any number of worker processes; there is
  no coordinator process to run or crash.
* **Observability.**  Rows carry attempt counts, lease owners, and
  created/started/finished timestamps plus the measured run time, so
  ``repro queue status`` can report what ran where, how often, and for how
  long.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.core import emit_event
from repro.utils.sqlstore import SqliteStore

#: Bump on incompatible changes to the tables below.  A v1 store (no cost
#: column) is migrated in place when opened for writing.
SCHEMA_VERSION = 2

#: Job states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, LEASED, DONE, FAILED)

#: States in which a job will never run again.
TERMINAL_STATES = (DONE, FAILED)

#: Default number of times a job may be attempted before it is failed.
DEFAULT_MAX_ATTEMPTS = 3

#: Base delay before a failed job becomes leasable again; doubled per
#: attempt (1st retry after BACKOFF, 2nd after 2*BACKOFF, ...).
RETRY_BACKOFF_SECONDS = 1.0

#: Lease order of runnable jobs: each trial's first job before any sibling,
#: then the costliest estimate first (a scalar-engine design), then
#: submission order.
_LEASE_ORDER = "sweep, part > 0, cost_scalar DESC, seq"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    token       TEXT PRIMARY KEY,
    description TEXT NOT NULL,
    spec        BLOB,
    total       INTEGER NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    sweep        TEXT NOT NULL,
    seq          INTEGER NOT NULL,
    key          TEXT NOT NULL,
    trial_index  INTEGER NOT NULL,
    part         INTEGER NOT NULL,
    kind         TEXT NOT NULL,
    trace_group  TEXT NOT NULL,
    payload      BLOB NOT NULL,
    state        TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    lease_owner  TEXT,
    lease_expiry REAL NOT NULL DEFAULT 0,
    result       BLOB,
    error        TEXT,
    created_at   REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    run_seconds  REAL,
    cost_scalar  INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (sweep, seq)
);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_by_key ON jobs (sweep, key);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, lease_expiry);
CREATE INDEX IF NOT EXISTS jobs_by_trial ON jobs (sweep, trial_index, state);
"""

#: What turns a v1 store into v2: the cost estimate's column.  Rows that
#: existed before read as unestimated (0) and so keep their order.
_MIGRATE_V1 = ("ALTER TABLE jobs"
               " ADD COLUMN cost_scalar INTEGER NOT NULL DEFAULT 0")


def default_owner() -> str:
    """A lease-owner identity naming this host and process.

    The ``host:pid`` prefix lets :meth:`JobStore.recover` detect leases held
    by processes that no longer exist on the local machine (a SIGKILLed
    worker) without waiting for the lease to time out; the random suffix
    keeps two worker loops in one process distinguishable.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{os.urandom(3).hex()}"


def _owner_is_dead(owner: Optional[str]) -> bool:
    """True when ``owner`` names a local process that provably exited."""
    if not owner:
        return False
    parts = owner.split(":")
    if len(parts) < 2 or parts[0] != socket.gethostname():
        return False  # a different host: only lease expiry can decide
    try:
        pid = int(parts[1])
    except ValueError:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OSError):
        return False
    return False


@dataclass(frozen=True)
class Job:
    """One job row (a batch of one sweep cell's measurement windows)."""

    sweep: str
    seq: int
    key: str
    #: Index of the trial in ``SweepSpec.trials()`` this job belongs to.
    trial_index: int
    #: Ordinal among the jobs of one trial (0: the trial's first job).
    part: int
    #: ``"windows"``: a batch of one cell's planned measurement windows.
    #: The only kind; a row of any other kind (an older store's) fails
    #: when it runs, and resubmitting its spec re-plans it.
    kind: str
    #: Trace-affinity group: jobs sharing a group replay the same trace.
    trace_group: str
    payload: bytes
    state: str
    attempts: int
    max_attempts: int
    lease_owner: Optional[str]
    lease_expiry: float
    result: Optional[bytes]
    error: Optional[str]
    created_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    run_seconds: Optional[float]
    #: Cost estimate: 1 when the job's design warms and replays on the
    #: scalar engine (no batch kernel covers it), else 0.
    cost_scalar: int


@dataclass(frozen=True)
class PlannedJob:
    """A job as produced by the planner, before it has a row."""

    key: str
    trial_index: int
    part: int
    kind: str
    trace_group: str
    payload: bytes
    #: The cost estimate (see :class:`Job`); unestimated jobs tie at 0.
    cost_scalar: int = 0


def _job_from_row(row: sqlite3.Row) -> Job:
    # A v1 store opened read-only is never migrated, so it may lack the cost
    # column; its jobs read as unestimated, as migration would leave them.
    present = row.keys()
    return Job(**{name: row[name] if name in present else 0
                  for name in Job.__dataclass_fields__})


def error_summary(error: Optional[str]) -> Optional[str]:
    """The last line of a job's recorded traceback: its exception summary."""
    lines = (error or "").strip().splitlines()
    return lines[-1] if lines else None


class JobStore(SqliteStore):
    """Durable queue of sweep jobs in one SQLite file.

    Opened, version-checked and transacted as every
    :class:`~repro.utils.sqlstore.SqliteStore`; a writable open migrates a
    v1 store in place, a read-only one reads it unmigrated.
    """

    DESCRIPTION = "job store"
    SCHEMA = _SCHEMA
    VERSION = SCHEMA_VERSION
    MIGRATIONS = {1: _MIGRATE_V1}

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, token: str, description: str, spec_blob: Optional[bytes],
               jobs: Sequence[PlannedJob],
               max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Insert a sweep and its jobs; returns the number of *new* jobs.

        Idempotent: rows that already exist (same sweep token and job key)
        are left untouched in whatever state they reached, so re-submitting
        a finished sweep inserts nothing and re-submitting an interrupted
        one only fills in rows a previous submit never created.
        """
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        now = time.time()
        new = 0
        with self._txn():
            self._conn.execute(
                "INSERT OR IGNORE INTO sweeps "
                "(token, description, spec, total, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (token, description, spec_blob, len(jobs), now),
            )
            for seq, job in enumerate(jobs):
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO jobs (sweep, seq, key, trial_index,"
                    " part, kind, trace_group, payload, state, attempts,"
                    " max_attempts, lease_expiry, created_at, cost_scalar) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 0, ?, 0, ?, ?)",
                    (token, seq, job.key, job.trial_index, job.part, job.kind,
                     job.trace_group, job.payload, PENDING, max_attempts, now,
                     job.cost_scalar),
                )
                new += cursor.rowcount
        return new

    def sweep_row(self, token: str) -> Optional[sqlite3.Row]:
        return self._conn.execute(
            "SELECT * FROM sweeps WHERE token = ?", (token,)
        ).fetchone()

    def sweeps(self) -> List[sqlite3.Row]:
        return self._conn.execute(
            "SELECT * FROM sweeps ORDER BY created_at"
        ).fetchall()

    def delete_sweep(self, token: str) -> int:
        """Drop a sweep's row and its job rows; returns the jobs deleted."""
        with self._txn():
            cursor = self._conn.execute(
                "DELETE FROM jobs WHERE sweep = ?", (token,))
            self._conn.execute("DELETE FROM sweeps WHERE token = ?", (token,))
        return cursor.rowcount

    # ------------------------------------------------------------------ #
    # Leasing
    # ------------------------------------------------------------------ #
    def lease(self, owner: str, lease_seconds: float,
              sweep: Optional[str] = None,
              prefer_group: Optional[str] = None,
              now: Optional[float] = None) -> Optional[Job]:
        """Atomically claim one runnable job, or ``None`` when there is none.

        Runnable means ``pending`` past its backoff time, or ``leased`` with
        an expired lease (the previous owner is presumed dead), with attempts
        remaining.  ``prefer_group`` implements trace-affine placement: a
        worker that just replayed one trace asks for more jobs on the same
        trace before touching a new one.

        With the checkpoint store enabled, a job is *held* while
        another job of its trial is under a live lease and no job of that
        trial is done yet: the running job is warming the trial's prologue
        and will save it as a checkpoint, which the held siblings then load
        instead of warming it again.  Held jobs are skipped (also by
        ``prefer_group``); when only held jobs remain this returns ``None``
        and the caller waits.  An expired lease holds nothing, and neither
        does one :meth:`recover` has reclaimed.

        Runnable jobs lease in ``sweep, part > 0, cost, seq`` order:
        every trial's first job (part 0, the one that warms and saves the
        prologue its siblings are held for) before any sibling; among those,
        the costliest estimate first -- a design on the scalar engine before
        any batch-kernel one -- and ties by ``seq``.  Starting the longest
        job first keeps one slow trial's chain (its prologue, then its held
        siblings) from starting last and leaving the other workers idle at
        the end (longest processing time first, Graham 1969).  Jobs without
        an estimate (a migrated v1 store) tie and lease by ``seq`` as before.

        The lease time (``started_at``) is read once the write lock is
        held, so it orders jobs as they were leased.
        """
        from repro.sampling.checkpoints import checkpoints_enabled

        eligible = (
            "((state = ? AND lease_expiry <= ?) OR"
            " (state = ? AND lease_expiry <= ?)) AND attempts < max_attempts"
        )
        hold = checkpoints_enabled()
        if sweep is not None:
            eligible += " AND sweep = ?"
        if hold:
            eligible += (
                " AND NOT (EXISTS (SELECT 1 FROM jobs AS sib"
                "  WHERE sib.sweep = jobs.sweep"
                "  AND sib.trial_index = jobs.trial_index"
                "  AND sib.state = ? AND sib.lease_expiry > ?)"
                " AND NOT EXISTS (SELECT 1 FROM jobs AS sib"
                "  WHERE sib.sweep = jobs.sweep"
                "  AND sib.trial_index = jobs.trial_index"
                "  AND sib.state = ?))"
            )
        with self._txn():
            now = time.time() if now is None else now
            params: List[object] = [PENDING, now, LEASED, now]
            if sweep is not None:
                params.append(sweep)
            if hold:
                params += [LEASED, now, DONE]
            row = None
            if prefer_group is not None:
                row = self._conn.execute(
                    f"SELECT * FROM jobs WHERE {eligible} AND trace_group = ?"
                    f" ORDER BY {_LEASE_ORDER} LIMIT 1",
                    params + [prefer_group],
                ).fetchone()
            if row is None:
                row = self._conn.execute(
                    f"SELECT * FROM jobs WHERE {eligible}"
                    f" ORDER BY {_LEASE_ORDER} LIMIT 1",
                    params,
                ).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = ?, attempts = attempts + 1,"
                " lease_owner = ?, lease_expiry = ?, started_at = ?,"
                " error = NULL WHERE sweep = ? AND seq = ?",
                (LEASED, owner, now + lease_seconds, now,
                 row["sweep"], row["seq"]),
            )
            fresh = self._conn.execute(
                "SELECT * FROM jobs WHERE sweep = ? AND seq = ?",
                (row["sweep"], row["seq"]),
            ).fetchone()
        return _job_from_row(fresh)

    def complete(self, sweep: str, seq: int, result: bytes, owner: str,
                 now: Optional[float] = None) -> bool:
        """Mark a leased job done; returns False if the lease was lost.

        The owner guard makes completion idempotent under lease theft: when
        a slow worker finishes a job whose expired lease another worker
        already reclaimed, the late completion is a no-op (both computed the
        same deterministic result anyway).  A done row keeps the owner that
        completed it, so status views can say which worker ran each job.
        """
        now = time.time() if now is None else now
        with self._txn():
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, result = ?, error = NULL,"
                " finished_at = ?, run_seconds = ? - started_at,"
                " lease_expiry = 0"
                " WHERE sweep = ? AND seq = ? AND state = ?"
                " AND lease_owner = ?",
                (DONE, result, now, now, sweep, seq, LEASED, owner),
            )
            return cursor.rowcount == 1

    def fail(self, sweep: str, seq: int, error: str, owner: str,
             now: Optional[float] = None) -> bool:
        """Record a failed attempt; retries with backoff until exhausted."""
        now = time.time() if now is None else now
        event = None
        with self._txn():
            row = self._conn.execute(
                "SELECT attempts, max_attempts FROM jobs"
                " WHERE sweep = ? AND seq = ? AND state = ?"
                " AND lease_owner = ?",
                (sweep, seq, LEASED, owner),
            ).fetchone()
            if row is None:
                return False
            if row["attempts"] >= row["max_attempts"]:
                self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, finished_at = ?,"
                    " lease_owner = NULL, lease_expiry = 0"
                    " WHERE sweep = ? AND seq = ?",
                    (FAILED, error, now, sweep, seq),
                )
                event = ("job_failed", {"seq": seq, "owner": owner,
                                        "attempts": row["attempts"],
                                        "error": error})
            else:
                backoff = RETRY_BACKOFF_SECONDS * (2 ** (row["attempts"] - 1))
                self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, lease_owner = NULL,"
                    " lease_expiry = ? WHERE sweep = ? AND seq = ?",
                    (PENDING, error, now + backoff, sweep, seq),
                )
                event = ("job_backoff", {"seq": seq, "owner": owner,
                                         "attempts": row["attempts"],
                                         "backoff_seconds": backoff,
                                         "error": error})
        # Event emission (log + ledger) happens outside the transaction so
        # the job store's write lock is never held across a ledger write.
        if event is not None:
            emit_event(event[0], sweep=sweep, **event[1])
        return True

    def recover(self, sweep: Optional[str] = None,
                now: Optional[float] = None,
                reclaim_dead: bool = True) -> int:
        """Return crashed workers' jobs to the queue; returns the count.

        Two signals mark a leased job as orphaned: an expired lease (works
        across hosts, costs the lease timeout) and -- with ``reclaim_dead``
        -- a lease owner that names a local process which no longer exists
        (immediate, the ``kill -9`` recovery path).  Jobs with attempts left
        go back to ``pending``; exhausted ones are failed.
        """
        now = time.time() if now is None else now
        where = "state = ?"
        params: List[object] = [LEASED]
        if sweep is not None:
            where += " AND sweep = ?"
            params.append(sweep)
        reclaimed = 0
        events = []
        with self._txn():
            rows = self._conn.execute(
                f"SELECT sweep, seq, attempts, max_attempts, lease_owner,"
                f" lease_expiry FROM jobs WHERE {where}", params,
            ).fetchall()
            for row in rows:
                expired = row["lease_expiry"] <= now
                dead = reclaim_dead and _owner_is_dead(row["lease_owner"])
                if not (expired or dead):
                    continue
                if row["attempts"] >= row["max_attempts"]:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, error = ?,"
                        " finished_at = ?, lease_owner = NULL,"
                        " lease_expiry = 0 WHERE sweep = ? AND seq = ?",
                        (FAILED,
                         f"lease lost after {row['attempts']} attempts",
                         now, row["sweep"], row["seq"]),
                    )
                else:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, lease_owner = NULL,"
                        " lease_expiry = 0 WHERE sweep = ? AND seq = ?",
                        (PENDING, row["sweep"], row["seq"]),
                    )
                events.append((row["sweep"], {
                    "seq": row["seq"], "owner": row["lease_owner"],
                    "attempts": row["attempts"],
                    "reason": "dead_owner" if dead else "expired",
                }))
                reclaimed += 1
        for sweep_token, detail in events:
            emit_event("lease_reclaimed", sweep=sweep_token, **detail)
        return reclaimed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counts(self, sweep: Optional[str] = None) -> Dict[str, int]:
        """Jobs per state (every state present, zero-filled)."""
        where, params = (("WHERE sweep = ?", (sweep,)) if sweep is not None
                         else ("", ()))
        rows = self._conn.execute(
            f"SELECT state, COUNT(*) AS n FROM jobs {where} GROUP BY state",
            params,
        ).fetchall()
        counts = {state: 0 for state in STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def unfinished(self, sweep: Optional[str] = None) -> int:
        """Jobs that are neither done nor failed."""
        counts = self.counts(sweep)
        return counts[PENDING] + counts[LEASED]

    def trial_counts(self, sweep: str) -> Dict[int, Tuple[int, int]]:
        """Per trial index: ``(done jobs, total jobs)``."""
        rows = self._conn.execute(
            "SELECT trial_index, SUM(state = ?) AS done, COUNT(*) AS total"
            " FROM jobs WHERE sweep = ? GROUP BY trial_index",
            (DONE, sweep),
        ).fetchall()
        return {row["trial_index"]: (row["done"], row["total"])
                for row in rows}

    def jobs(self, sweep: str, state: Optional[str] = None) -> List[Job]:
        """A sweep's jobs in ``seq`` order, only those in ``state`` if given."""
        where, params = "sweep = ?", [sweep]
        if state is not None:
            where, params = where + " AND state = ?", params + [state]
        rows = self._conn.execute(
            f"SELECT * FROM jobs WHERE {where} ORDER BY seq", params
        ).fetchall()
        return [_job_from_row(row) for row in rows]

    def job(self, sweep: str, seq: int) -> Optional[Job]:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE sweep = ? AND seq = ?", (sweep, seq)
        ).fetchone()
        return None if row is None else _job_from_row(row)

    def done_jobs(self, sweep: str) -> List[Job]:
        return self.jobs(sweep, DONE)

    def failed_jobs(self, sweep: str) -> List[Job]:
        return self.jobs(sweep, FAILED)

    def timing(self, sweep: str) -> Dict[str, float]:
        """Aggregate observability numbers for one sweep's finished jobs."""
        row = self._conn.execute(
            "SELECT COUNT(run_seconds) AS n, SUM(run_seconds) AS total,"
            " AVG(run_seconds) AS mean, MAX(run_seconds) AS longest,"
            " SUM(attempts) AS attempts FROM jobs"
            " WHERE sweep = ? AND run_seconds IS NOT NULL",
            (sweep,),
        ).fetchone()
        return {
            "jobs_timed": row["n"] or 0,
            "total_seconds": row["total"] or 0.0,
            "mean_seconds": row["mean"] or 0.0,
            "longest_seconds": row["longest"] or 0.0,
            "attempts": row["attempts"] or 0,
        }


__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DONE",
    "FAILED",
    "Job",
    "JobStore",
    "LEASED",
    "PENDING",
    "PlannedJob",
    "RETRY_BACKOFF_SECONDS",
    "SCHEMA_VERSION",
    "STATES",
    "TERMINAL_STATES",
    "default_owner",
    "error_summary",
]
