"""Durable work-queue sweep service.

Sweeps become idempotent jobs in a SQLite-backed :class:`JobStore`;
:class:`SweepService` plans, runs, resumes, and assembles them; worker
loops (:func:`work`) lease and execute jobs from any process; finished
sweeps persist in the :class:`ResultArchive`.  See ``README.md`` ("Durable
sweeps") and ``examples/queue_sweep_tour.py``.
"""

from repro.queue.archive import ARCHIVE_SCHEMA_VERSION, ResultArchive
from repro.queue.jobstore import (
    DEFAULT_MAX_ATTEMPTS,
    DONE,
    FAILED,
    Job,
    JobStore,
    LEASED,
    PENDING,
    PlannedJob,
    SCHEMA_VERSION,
    STATES,
    default_owner,
)
from repro.queue.service import (
    DEFAULT_WINDOW_BATCH,
    ENV_QUEUE_DIR,
    SubmitOutcome,
    SweepFailedError,
    SweepPlan,
    SweepService,
    default_queue_dir,
    plan_sweep,
)
from repro.queue.worker import execute_job, work

__all__ = [
    "ARCHIVE_SCHEMA_VERSION",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_WINDOW_BATCH",
    "DONE",
    "ENV_QUEUE_DIR",
    "FAILED",
    "Job",
    "JobStore",
    "LEASED",
    "PENDING",
    "PlannedJob",
    "ResultArchive",
    "SCHEMA_VERSION",
    "STATES",
    "SubmitOutcome",
    "SweepFailedError",
    "SweepPlan",
    "SweepService",
    "default_owner",
    "default_queue_dir",
    "execute_job",
    "plan_sweep",
    "work",
]
