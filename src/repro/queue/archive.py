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
already archived costs zero simulation.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.sim.experiment import ExperimentResult
from repro.sim.resultset import ResultSet

PathLike = Union[str, Path]

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


class ResultArchive:
    """Archived :class:`ResultSet` rows keyed by sweep token."""

    def __init__(self, path: PathLike, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        if readonly:
            # A read-only connection never takes write locks, so readers
            # (e.g. ``repro serve``) cannot stall concurrent workers.  WAL
            # databases whose -shm file is missing refuse read-only opens
            # with SQLITE_CANTOPEN; callers should catch OperationalError
            # and fall back to a writable connection.
            if not self.path.is_file():
                raise FileNotFoundError(f"no result archive at {self.path}")
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=30.0
            )
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA busy_timeout=30000")
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None and int(row["value"]) != ARCHIVE_SCHEMA_VERSION:
                raise ValueError(
                    f"result archive {self.path} has schema v{row['value']}, "
                    f"this build expects v{ARCHIVE_SCHEMA_VERSION}"
                )
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA busy_timeout=30000")
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:
            pass
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(ARCHIVE_SCHEMA_VERSION),),
                )
            elif int(row["value"]) != ARCHIVE_SCHEMA_VERSION:
                raise ValueError(
                    f"result archive {self.path} has schema v{row['value']}, "
                    f"this build expects v{ARCHIVE_SCHEMA_VERSION}"
                )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def register(self, token: str, description: str, total: int) -> None:
        """Record a sweep's shape (idempotent)."""
        with self._conn:
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
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results"
                " (sweep, trial_index, record, created_at) VALUES (?, ?, ?, ?)",
                (token, trial_index, record, time.time()),
            )

    def mark_complete(self, token: str) -> None:
        with self._conn:
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
        rows = self._conn.execute(
            "SELECT record FROM results WHERE sweep = ? ORDER BY trial_index",
            (token,),
        ).fetchall()
        if total is None or len(rows) != total:
            return None
        return ResultSet.from_records(
            json.loads(row["record"]) for row in rows
        )

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
        rows = self._conn.execute(
            "SELECT token FROM sweeps ORDER BY created_at"
        ).fetchall()
        return [row["token"] for row in rows]

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
            "SELECT s.token, s.description, s.total, s.created_at,"
            "       s.completed_at,"
            "       (SELECT COUNT(*) FROM results r WHERE r.sweep = s.token)"
            "       AS records"
            " FROM sweeps s ORDER BY s.created_at, s.token"
        ).fetchall()
        return [self._sweep_dict(row) for row in rows]

    def sweep_meta(self, token: str) -> Optional[Dict[str, object]]:
        """Metadata dict of one sweep (see :meth:`list_sweeps`), or ``None``."""
        row = self._conn.execute(
            "SELECT s.token, s.description, s.total, s.created_at,"
            "       s.completed_at,"
            "       (SELECT COUNT(*) FROM results r WHERE r.sweep = s.token)"
            "       AS records"
            " FROM sweeps s WHERE s.token = ?",
            (token,),
        ).fetchone()
        return None if row is None else self._sweep_dict(row)

    @staticmethod
    def _sweep_dict(row: sqlite3.Row) -> Dict[str, object]:
        return {
            "token": row["token"],
            "description": row["description"],
            "total": row["total"],
            "records": row["records"],
            "created_at": row["created_at"],
            "completed_at": row["completed_at"],
            "complete": row["records"] >= row["total"] and row["total"] > 0,
        }


__all__ = ["ARCHIVE_SCHEMA_VERSION", "ResultArchive"]
