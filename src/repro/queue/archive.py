"""Persistent, schema-versioned archive of sweep results.

Every assembled sweep writes each trial's
:class:`~repro.sim.experiment.ExperimentResult` into this SQLite archive
(while it runs, a finished job's measurements are already durable in its
job row), and every archived sweep can be re-read as a bit-identical
:class:`~repro.sim.resultset.ResultSet` without re-simulating anything
(floats round-trip exactly through the JSON records, the same guarantee
``ResultSet.to_json`` makes).

The archive lives next to the job store (``<trace store>/queue/`` by
default), keyed by the sweep's spec token, which makes it the durable
complement of the :class:`~repro.queue.jobstore.JobStore`: the job store can
be pruned once a sweep is archived, and a re-submitted sweep whose token is
already archived costs zero simulation.  It opens, version-checks and
transacts as every :class:`~repro.utils.sqlstore.SqliteStore`.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.sim.experiment import ExperimentResult
from repro.sim.resultset import ResultSet
from repro.utils.sqlstore import SqliteStore

#: Bump on incompatible changes to the archive tables.
ARCHIVE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    token        TEXT PRIMARY KEY,
    description  TEXT NOT NULL,
    total        INTEGER NOT NULL,
    created_at   REAL NOT NULL,
    completed_at REAL
);
CREATE TABLE IF NOT EXISTS results (
    sweep       TEXT NOT NULL,
    trial_index INTEGER NOT NULL,
    record      TEXT NOT NULL,
    created_at  REAL NOT NULL,
    PRIMARY KEY (sweep, trial_index)
);
"""

#: The query behind :meth:`ResultArchive.list_sweeps`' metadata dicts.
_SWEEP_META = (
    "SELECT s.token, s.description, s.total,"
    " (SELECT COUNT(*) FROM results r WHERE r.sweep = s.token) AS records,"
    " s.created_at, s.completed_at FROM sweeps s"
)


class ResultArchive(SqliteStore):
    """Archived :class:`ResultSet` rows keyed by sweep token."""

    DESCRIPTION = "result archive"
    SCHEMA = _SCHEMA
    VERSION = ARCHIVE_SCHEMA_VERSION

    # ------------------------------------------------------------------ #
    def register(self, token: str, description: str, total: int) -> None:
        """Record a sweep's shape (idempotent)."""
        with self._txn():
            self._conn.execute(
                "INSERT OR IGNORE INTO sweeps"
                " (token, description, total, created_at) VALUES (?, ?, ?, ?)",
                (token, description, total, time.time()),
            )

    def put(self, token: str, trial_index: int,
            result: ExperimentResult) -> None:
        """Stream one trial's result into the archive (idempotent).

        Deterministic execution means a replaced row always holds the same
        record, so REPLACE semantics are safe under concurrent workers.
        """
        record = json.dumps(asdict(result), sort_keys=True)
        with self._txn():
            self._conn.execute(
                "INSERT OR REPLACE INTO results"
                " (sweep, trial_index, record, created_at) VALUES (?, ?, ?, ?)",
                (token, trial_index, record, time.time()),
            )

    def mark_complete(self, token: str) -> None:
        with self._txn():
            self._conn.execute(
                "UPDATE sweeps SET completed_at = ? WHERE token = ?"
                " AND completed_at IS NULL",
                (time.time(), token),
            )

    # ------------------------------------------------------------------ #
    def count(self, token: str) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) AS n FROM results WHERE sweep = ?", (token,)
        ).fetchone()
        return row["n"]

    def total(self, token: str) -> Optional[int]:
        row = self._conn.execute(
            "SELECT total FROM sweeps WHERE token = ?", (token,)
        ).fetchone()
        return None if row is None else row["total"]

    def get(self, token: str) -> Optional[ResultSet]:
        """The archived ResultSet, or ``None`` unless every trial is present.

        Rows are returned in trial order, so the assembled set is
        bit-identical to the one a serial in-memory sweep produces.
        """
        total = self.total(token)
        records = self.records(token)
        if total is None or len(records) != total:
            return None
        return ResultSet.from_records(records)

    def records(self, token: str) -> List[dict]:
        """All archived result records of ``token``, in trial order.

        Unlike :meth:`get` this does not require the sweep to be complete,
        so live readers (the dashboard, ``repro serve``) can render partial
        sweeps while workers are still draining the queue.
        """
        rows = self._conn.execute(
            "SELECT record FROM results WHERE sweep = ? ORDER BY trial_index",
            (token,),
        ).fetchall()
        return [json.loads(row["record"]) for row in rows]

    def tokens(self) -> List[str]:
        return [row["token"] for row in self.sweeps()]

    def sweeps(self) -> List[sqlite3.Row]:
        return self._conn.execute(
            "SELECT * FROM sweeps ORDER BY created_at"
        ).fetchall()

    def list_sweeps(self) -> List[Dict[str, object]]:
        """One metadata dict per archived sweep, oldest first.

        Each dict carries ``token``, ``description`` (the spec label),
        ``total`` (planned trials), ``records`` (archived so far),
        ``created_at``, ``completed_at`` (``None`` while incomplete), and
        ``complete``.  This replaces callers poking at the sweeps table or
        globbing the archive directory.
        """
        rows = self._conn.execute(
            f"{_SWEEP_META} ORDER BY s.created_at, s.token").fetchall()
        return [self._sweep_dict(row) for row in rows]

    def sweep_meta(self, token: str) -> Optional[Dict[str, object]]:
        """Metadata dict of one sweep (see :meth:`list_sweeps`), or ``None``."""
        row = self._conn.execute(
            f"{_SWEEP_META} WHERE s.token = ?", (token,)).fetchone()
        return None if row is None else self._sweep_dict(row)

    @staticmethod
    def _sweep_dict(row: sqlite3.Row) -> Dict[str, object]:
        meta: Dict[str, object] = dict(row)
        meta["complete"] = row["records"] >= row["total"] and row["total"] > 0
        return meta


__all__ = ["ARCHIVE_SCHEMA_VERSION", "ResultArchive"]
