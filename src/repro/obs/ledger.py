"""The run ledger: a schema-versioned SQLite database of recorded runs.

Every telemetry run (a full-replay trial, a sampled trial, a window-batch
job, a sweep assembly) lands here as one ``runs`` row plus its ``phases``
and ``metrics`` rows, written in a single transaction when the run closes.
Queue workers additionally maintain one ``heartbeats`` row each (current
job, jobs done, throughput), and standalone queue events (lease theft,
retry backoff, lease reclaim) append to ``events``.

This is the durable sink behind the operator CLI:

* ``repro runs list``    -- recent runs, filterable by sweep token;
* ``repro runs show``    -- per-phase wall-clock, accesses/sec,
  store/checkpoint hit rates and the engine (batch/scalar) that served
  warming and replay, for one run *or aggregated over every run of a
  sweep token*;
* ``repro runs compare`` -- two of the above side by side;
* ``repro top`` / ``repro queue status --watch`` -- live worker heartbeats.

Like the job store and result archive, the ledger is multi-process safe
(WAL + busy timeout, short transactions) and refuses databases written by
an incompatible schema version.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]

#: Bump on incompatible changes to the tables below.
LEDGER_SCHEMA_VERSION = 1

#: Heartbeats older than this are rendered as stale (the worker likely
#: exited without closing, e.g. kill -9).
HEARTBEAT_STALE_SECONDS = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    label       TEXT,
    design      TEXT,
    workload    TEXT,
    capacity    TEXT,
    sweep       TEXT,
    job_seq     INTEGER,
    host        TEXT,
    pid         INTEGER,
    started_at  REAL NOT NULL,
    finished_at REAL,
    wall_seconds REAL,
    status      TEXT NOT NULL,
    error       TEXT,
    labels      TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_sweep ON runs (sweep, started_at);
CREATE INDEX IF NOT EXISTS runs_by_start ON runs (started_at);
CREATE TABLE IF NOT EXISTS phases (
    run_id   TEXT NOT NULL,
    name     TEXT NOT NULL,
    seconds  REAL NOT NULL,
    count    INTEGER NOT NULL,
    counters TEXT,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL,
    name   TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS events (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    kind   TEXT NOT NULL,
    sweep  TEXT,
    run_id TEXT,
    detail TEXT
);
CREATE INDEX IF NOT EXISTS events_by_sweep ON events (sweep, ts);
CREATE TABLE IF NOT EXISTS heartbeats (
    owner       TEXT PRIMARY KEY,
    host        TEXT,
    pid         INTEGER,
    sweep       TEXT,
    status      TEXT NOT NULL,
    job_seq     INTEGER,
    job_kind    TEXT,
    job_label   TEXT,
    jobs_done   INTEGER NOT NULL DEFAULT 0,
    jobs_per_second REAL,
    started_at  REAL NOT NULL,
    job_started_at REAL,
    updated_at  REAL NOT NULL
);
"""

#: Label keys promoted to their own ``runs`` columns (everything else is
#: kept in the JSON ``labels`` blob).
_COLUMN_LABELS = ("label", "design", "workload", "capacity", "sweep",
                  "job_seq")


class RunLedger:
    """SQLite-backed store of runs, phases, metrics, events, heartbeats."""

    def __init__(self, path: PathLike, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        if readonly:
            # Query-only connection: never takes write locks, so readers
            # (``repro serve``, ``repro runs``) cannot block live workers.
            # Read-only opens of a WAL database can raise OperationalError
            # when the -shm file is missing; callers fall back to a
            # writable connection in that case.
            if not self.path.is_file():
                raise FileNotFoundError(f"no run ledger at {self.path}")
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=30.0
            )
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA busy_timeout=30000")
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None and int(row["value"]) != LEDGER_SCHEMA_VERSION:
                raise ValueError(
                    f"run ledger {self.path} has schema v{row['value']}, "
                    f"this build expects v{LEDGER_SCHEMA_VERSION}"
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
                    "INSERT INTO meta (key, value)"
                    " VALUES ('schema_version', ?)",
                    (str(LEDGER_SCHEMA_VERSION),),
                )
            elif int(row["value"]) != LEDGER_SCHEMA_VERSION:
                raise ValueError(
                    f"run ledger {self.path} has schema v{row['value']}, "
                    f"this build expects v{LEDGER_SCHEMA_VERSION}"
                )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def record_run(self, record: Dict[str, object]) -> None:
        """Persist one finished run (the dict :meth:`Run.to_record` builds)."""
        labels = dict(record.get("labels") or {})
        columns = {key: labels.pop(key, None) for key in _COLUMN_LABELS}
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO runs (run_id, kind, label, design,"
                " workload, capacity, sweep, job_seq, host, pid, started_at,"
                " finished_at, wall_seconds, status, error, labels)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (record["run_id"], record["kind"], columns["label"],
                 columns["design"], columns["workload"], columns["capacity"],
                 columns["sweep"], columns["job_seq"], record.get("host"),
                 record.get("pid"), record["started_at"],
                 record.get("finished_at"), record.get("wall_seconds"),
                 record.get("status", "ok"), record.get("error"),
                 json.dumps(labels, sort_keys=True, default=str)
                 if labels else None),
            )
            for name, (seconds, count, counters) in (
                    record.get("phases") or {}).items():
                self._conn.execute(
                    "INSERT OR REPLACE INTO phases"
                    " (run_id, name, seconds, count, counters)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (record["run_id"], name, seconds, count,
                     json.dumps(counters, sort_keys=True)
                     if counters else None),
                )
            for name, value in (record.get("metrics") or {}).items():
                self._conn.execute(
                    "INSERT OR REPLACE INTO metrics (run_id, name, value)"
                    " VALUES (?, ?, ?)",
                    (record["run_id"], name, float(value)),
                )

    def record_event(self, kind: str, sweep: Optional[str] = None,
                     run_id: Optional[str] = None,
                     detail: Optional[Dict[str, object]] = None) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT INTO events (ts, kind, sweep, run_id, detail)"
                " VALUES (?, ?, ?, ?, ?)",
                (time.time(), kind, sweep, run_id,
                 json.dumps(detail, sort_keys=True, default=str)
                 if detail else None),
            )

    # ------------------------------------------------------------------ #
    # Heartbeats
    # ------------------------------------------------------------------ #
    def heartbeat(self, owner: str, **fields) -> None:
        """Upsert one worker's heartbeat row (missing fields preserved)."""
        now = time.time()
        with self._conn:
            self._conn.execute(
                "INSERT INTO heartbeats (owner, status, started_at,"
                " updated_at) VALUES (?, 'starting', ?, ?)"
                " ON CONFLICT(owner) DO NOTHING",
                (owner, now, now),
            )
            assignments = ", ".join(f"{name} = ?" for name in fields)
            values = list(fields.values())
            self._conn.execute(
                f"UPDATE heartbeats SET updated_at = ?"
                f"{', ' + assignments if assignments else ''}"
                f" WHERE owner = ?",
                [now] + values + [owner],
            )

    def heartbeats(self, sweep: Optional[str] = None,
                   include_exited: bool = False) -> List[sqlite3.Row]:
        where, params = [], []  # type: List[str], List[object]
        if sweep is not None:
            where.append("sweep = ?")
            params.append(sweep)
        if not include_exited:
            where.append("status != 'exited'")
        clause = f"WHERE {' AND '.join(where)}" if where else ""
        return self._conn.execute(
            f"SELECT * FROM heartbeats {clause} ORDER BY started_at",
            params,
        ).fetchall()

    # ------------------------------------------------------------------ #
    # Query side
    # ------------------------------------------------------------------ #
    def runs(self, limit: int = 20, sweep: Optional[str] = None,
             kind: Optional[str] = None) -> List[sqlite3.Row]:
        where, params = [], []  # type: List[str], List[object]
        if sweep is not None:
            where.append("substr(sweep, 1, ?) = ?")
            params.extend([len(sweep), sweep])
        if kind is not None:
            where.append("kind = ?")
            params.append(kind)
        clause = f"WHERE {' AND '.join(where)}" if where else ""
        params.append(limit)
        return self._conn.execute(
            f"SELECT * FROM runs {clause} ORDER BY started_at DESC, run_id"
            f" DESC LIMIT ?",
            params,
        ).fetchall()

    def run(self, run_id: str) -> Optional[sqlite3.Row]:
        return self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()

    def resolve(self, ref: str) -> Tuple[str, List[sqlite3.Row]]:
        """Resolve a user-typed reference to runs.

        Accepts a run-id prefix or a sweep-token prefix -- exact and
        case-sensitive, with no wildcard characters -- and returns
        ``("run", [row])`` or ``("sweep", rows)``.  Raises ``KeyError`` for
        no match and ``ValueError`` for an empty reference or a prefix
        matching several runs or several sweeps.
        """
        if not ref:
            raise ValueError("empty run or sweep reference")
        rows = self._prefix_rows("run_id", ref)
        if len(rows) == 1:
            return "run", rows
        if len(rows) > 1:
            raise ValueError(
                f"run reference {ref!r} is ambiguous "
                f"({len(rows)} matching runs)"
            )
        rows = self._prefix_rows("sweep", ref)
        sweeps = sorted({row["sweep"] for row in rows})
        if len(sweeps) > 1:
            raise ValueError(
                f"ambiguous sweep prefix {ref!r}: matches {sweeps}")
        if rows:
            return "sweep", rows
        raise KeyError(f"no run or sweep matches {ref!r}")

    def _prefix_rows(self, column: str, prefix: str) -> List[sqlite3.Row]:
        return self._conn.execute(
            f"SELECT * FROM runs WHERE substr({column}, 1, ?) = ?"
            f" ORDER BY started_at",
            (len(prefix), prefix),
        ).fetchall()

    def phases_for(self, run_ids: Sequence[str]) -> Dict[str, Tuple[float, int]]:
        """Aggregate phase seconds/counts over a set of runs."""
        if not run_ids:
            return {}
        marks = ",".join("?" for _ in run_ids)
        rows = self._conn.execute(
            f"SELECT name, SUM(seconds) AS seconds, SUM(count) AS count"
            f" FROM phases WHERE run_id IN ({marks}) GROUP BY name",
            list(run_ids),
        ).fetchall()
        return {row["name"]: (row["seconds"], row["count"]) for row in rows}

    def metrics_for(self, run_ids: Sequence[str]) -> Dict[str, float]:
        """Summed metrics over a set of runs (rates are recomputed by
        callers from the summed numerators/denominators)."""
        if not run_ids:
            return {}
        marks = ",".join("?" for _ in run_ids)
        rows = self._conn.execute(
            f"SELECT name, SUM(value) AS value FROM metrics"
            f" WHERE run_id IN ({marks}) GROUP BY name",
            list(run_ids),
        ).fetchall()
        return {row["name"]: row["value"] for row in rows}

    def events_for(self, run_id: Optional[str] = None,
                   sweep: Optional[str] = None,
                   limit: int = 50) -> List[sqlite3.Row]:
        where, params = [], []  # type: List[str], List[object]
        if run_id is not None:
            where.append("run_id = ?")
            params.append(run_id)
        if sweep is not None:
            where.append("sweep = ?")
            params.append(sweep)
        clause = f"WHERE {' AND '.join(where)}" if where else ""
        params.append(limit)
        return self._conn.execute(
            f"SELECT * FROM events {clause} ORDER BY ts DESC, id DESC"
            f" LIMIT ?",
            params,
        ).fetchall()


#: Run metrics counting the warm and replay calls per engine (see
#: :func:`repro.sim.experiment.note_engine`).
ENGINE_METRICS = ("engine_batch_calls", "engine_batch_accesses",
                  "engine_scalar_calls", "engine_scalar_accesses")


def engine_summary(metrics: Dict[str, float],
                   rows: Sequence[sqlite3.Row]) -> Optional[Dict[str, object]]:
    """Which engine served the runs' warm and replay calls, or None.

    Moves the :data:`ENGINE_METRICS` out of ``metrics`` into one record:
    the call and access counts per engine (``batch_calls``, ...) and the
    distinct ``scalar_fallback`` reasons the runs were labelled with.
    """
    counts = {name[len("engine_"):]: int(metrics.pop(name, 0))
              for name in ENGINE_METRICS}
    if not counts["batch_calls"] + counts["scalar_calls"]:
        return None
    reasons = set()
    for row in rows:
        labels = json.loads(row["labels"]) if row["labels"] else {}
        if labels.get("scalar_fallback"):
            reasons.add(labels["scalar_fallback"])
    return {**counts, "scalar_fallbacks": sorted(reasons)}


def summarize(ledger: RunLedger, rows: Sequence[sqlite3.Row]) -> Dict[str, object]:
    """The aggregate report behind ``repro runs show``.

    Sums per-phase wall-clock over the given runs, recomputes throughput
    (total measured accesses / total measure seconds), the share of
    wall-clock spent restoring sampled checkpoints, and the store and
    checkpoint hit rates from the summed counters, and carries the run
    count and statuses.
    """
    run_ids = [row["run_id"] for row in rows]
    phases = ledger.phases_for(run_ids)
    metrics = ledger.metrics_for(run_ids)
    # Per-run derived rates are not meaningful summed; they are recomputed
    # below from the summed numerators and denominators.
    for name in ("accesses_per_sec", "trace_store_hit_rate",
                 "checkpoint_hit_rate"):
        metrics.pop(name, None)
    summary: Dict[str, object] = {
        "runs": len(rows),
        "errors": sum(1 for row in rows if row["status"] != "ok"),
        "wall_seconds": sum(row["wall_seconds"] or 0.0 for row in rows),
        "phases": phases,
        "metrics": metrics,
    }
    engine = engine_summary(metrics, rows)
    if engine is not None:
        summary["engine"] = engine
    restore = phases.get("restore", (0.0, 0))[0]
    if restore > 0 and summary["wall_seconds"] > 0:
        # The sampled path's checkpoint-restore share of the wall-clock.
        summary["restore_share"] = restore / summary["wall_seconds"]
    measure = phases.get("measure", (0.0, 0))[0]
    accesses = metrics.get("accesses", 0.0)
    if measure > 0 and accesses:
        summary["accesses_per_sec"] = accesses / measure
    hits = metrics.get("trace_store_hits", 0.0)
    misses = metrics.get("trace_store_misses", 0.0)
    if hits + misses > 0:
        summary["trace_store_hit_rate"] = hits / (hits + misses)
    hits = metrics.get("checkpoint_hits", 0.0)
    misses = metrics.get("checkpoint_misses", 0.0)
    if hits + misses > 0:
        summary["checkpoint_hit_rate"] = hits / (hits + misses)
    return summary


__all__ = [
    "ENGINE_METRICS",
    "HEARTBEAT_STALE_SECONDS",
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "engine_summary",
    "summarize",
]
