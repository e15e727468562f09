"""Read-side data assembly behind ``repro serve``.

One :class:`ReadModel` resolves the three stores -- the job store and
result archive under the queue directory, the run ledger (plus JSONL
manifests) under the telemetry directory -- and turns their rows into
JSON-ready dicts.  Three contracts hold everywhere:

* **Telemetry-off still reads.**  Directory resolution mirrors
  :func:`repro.obs.core.query_root`: the ``REPRO_TELEMETRY`` *enable*
  switch is ignored on the read side, so a server pointed at stores
  written by an instrumented run works even when the environment no
  longer enables telemetry.
* **No lock spans a render.**  Every method opens short-lived
  connections -- read-only (``mode=ro``) when the database allows it --
  fetches all rows, and closes them before any SVG or HTML is built.
* **Missing stores degrade, they don't crash.**  Listing endpoints
  report ``available: false`` with a reason -- also when there is no
  queue directory at all (the trace store is disabled and no
  ``REPRO_QUEUE_DIR`` is set); only lookups of a specific record raise
  (:class:`LookupError` -> HTTP 404 upstream).

The operator CLI (``repro queue status``, ``repro top``, ``repro runs``)
renders these same dicts, so its ``--json`` output is the endpoint's body.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.core import LEDGER_FILENAME, query_root
from repro.obs.ledger import (
    HEARTBEAT_STALE_SECONDS,
    RunLedger,
    engine_summary,
    summarize,
)
from repro.obs.manifest import find_manifest, read_manifest
from repro.queue.archive import ResultArchive
from repro.queue.jobstore import JobStore, error_summary
from repro.queue.service import (
    ARCHIVE_FILENAME,
    JOB_STORE_FILENAME,
    NO_QUEUE_DIR,
    default_queue_dir,
)
from repro.sim.resultset import ResultSet

PathLike = Union[str, Path]

#: Directory names used when ``--root`` points at a trace-store-shaped
#: tree (the layout ``SweepService`` and the telemetry writer produce).
QUEUE_DIRNAME = "queue"
TELEMETRY_DIRNAME = "telemetry"


def _join(directory: Optional[Path], name: str) -> Optional[Path]:
    return None if directory is None else directory / name


def _is_file(path: Optional[Path]) -> bool:
    return path is not None and path.is_file()


def _text(path: Optional[Path]) -> Optional[str]:
    return None if path is None else str(path)


def _open_existing(cls, path: Optional[Path]):
    """``open_readonly`` of an existing store file, else ``None``."""
    return open_readonly(cls, path) if _is_file(path) else None


def open_readonly(cls, path: PathLike):
    """Open a store read-only, falling back to a writable connection.

    Read-only opens of a WAL database raise ``SQLITE_CANTOPEN`` when the
    companion ``-shm`` file is missing (a cleanly shut down writer removes
    it); the writable fallback recreates it.  Either way the caller
    fetches rows and closes immediately, so no lock outlives the query.
    """
    try:
        return cls(path, readonly=True)
    except sqlite3.OperationalError:
        return cls(path)


class ReadModel:
    """Plain-dict views over the job store, archive, and run ledger."""

    def __init__(self, queue_dir: Optional[PathLike] = None,
                 telemetry_dir: Optional[PathLike] = None) -> None:
        self.queue_dir: Optional[Path] = (Path(queue_dir)
                                          if queue_dir is not None
                                          else default_queue_dir())
        if telemetry_dir is not None:
            self.telemetry_dir: Optional[Path] = Path(telemetry_dir)
        else:
            self.telemetry_dir = query_root()

    @classmethod
    def at_root(cls, root: PathLike) -> "ReadModel":
        """A model over ``<root>/queue`` and ``<root>/telemetry``."""
        root = Path(root)
        return cls(queue_dir=root / QUEUE_DIRNAME,
                   telemetry_dir=root / TELEMETRY_DIRNAME)

    # ------------------------------------------------------------------ #
    # Store handles
    # ------------------------------------------------------------------ #
    @property
    def jobstore_path(self) -> Optional[Path]:
        return _join(self.queue_dir, JOB_STORE_FILENAME)

    @property
    def archive_path(self) -> Optional[Path]:
        return _join(self.queue_dir, ARCHIVE_FILENAME)

    @property
    def ledger_path(self) -> Optional[Path]:
        return _join(self.telemetry_dir, LEDGER_FILENAME)

    def _jobstore(self) -> Optional[JobStore]:
        return _open_existing(JobStore, self.jobstore_path)

    def _archive(self) -> Optional[ResultArchive]:
        return _open_existing(ResultArchive, self.archive_path)

    def _ledger(self) -> Optional[RunLedger]:
        return _open_existing(RunLedger, self.ledger_path)

    def _queue_reason(self, missing: str) -> str:
        """Why a queue store is absent: no directory at all, or ``missing``."""
        return NO_QUEUE_DIR if self.queue_dir is None else missing

    def health(self) -> Dict[str, object]:
        return {
            "ok": True,
            "queue_dir": _text(self.queue_dir),
            "telemetry_dir": _text(self.telemetry_dir),
            "stores": {
                "jobs": _is_file(self.jobstore_path),
                "archive": _is_file(self.archive_path),
                "ledger": _is_file(self.ledger_path),
            },
        }

    # ------------------------------------------------------------------ #
    # /api/designs
    # ------------------------------------------------------------------ #
    def designs(self) -> Dict[str, object]:
        """The design catalog: every registered design, all five roles."""
        from repro.sim.factory import design_names
        from repro.sim.registry import DESIGNS

        designs = []
        for name in design_names():
            entry = DESIGNS.resolve(name)
            designs.append({
                "name": entry.name,
                "description": entry.description,
                "components": {
                    role: {
                        "kind": getattr(entry.spec, role).kind,
                        "params": getattr(entry.spec, role).params_dict(),
                    }
                    for role in ("tags", "hit_predictor", "fetch",
                                 "writeback", "replacement")
                },
            })
        return {"designs": designs}

    # ------------------------------------------------------------------ #
    # /api/sweeps
    # ------------------------------------------------------------------ #
    def sweeps(self) -> Dict[str, object]:
        """Archive listing merged with live job-store counts per sweep."""
        by_token: Dict[str, Dict[str, object]] = {}
        archive = self._archive()
        if archive is not None:
            with archive:
                for meta in archive.list_sweeps():
                    meta["archived"] = True
                    meta["jobs"] = None
                    by_token[str(meta["token"])] = meta
        store = self._jobstore()
        if store is not None:
            with store:
                for row in store.sweeps():
                    token = row["token"]
                    meta = by_token.setdefault(token, {
                        "token": token,
                        "description": row["description"],
                        "total": row["total"],
                        "records": 0,
                        "created_at": row["created_at"],
                        "completed_at": None,
                        "complete": False,
                        "archived": False,
                        "jobs": None,
                    })
                    meta["jobs"] = self._job_counts(store, token)
        sweeps = sorted(by_token.values(),
                        key=lambda meta: (meta["created_at"] or 0.0,
                                          meta["token"]))
        available = archive is not None or store is not None
        data: Dict[str, object] = {"available": available, "sweeps": sweeps}
        if not available:
            data["reason"] = self._queue_reason(
                f"no job store or result archive under {self.queue_dir}")
        return data

    def match_token(self, ref: str) -> str:
        """Resolve an exact token or unique prefix over both stores."""
        if not ref:
            raise ValueError("empty sweep token")
        tokens = {str(meta["token"])
                  for meta in self.sweeps()["sweeps"]}  # type: ignore[index]
        if ref in tokens:
            return ref
        matches = sorted(token for token in tokens if token.startswith(ref))
        if not matches:
            raise KeyError(f"no sweep matches {ref!r}")
        if len(matches) > 1:
            raise ValueError(
                f"ambiguous sweep prefix {ref!r}: matches {matches}")
        return matches[0]

    def sweep(self, ref: str, include_records: bool = True
              ) -> Dict[str, object]:
        """One sweep's metadata, job counts, and archived records."""
        token = self.match_token(ref)
        data: Dict[str, object] = {"token": token}
        archive = self._archive()
        if archive is not None:
            with archive:
                meta = archive.sweep_meta(token)
                records = archive.records(token) if include_records else []
            if meta is not None:
                data.update(meta)
                data["archived"] = True
            if include_records:
                data["results"] = records
        store = self._jobstore()
        if store is not None:
            with store:
                row = store.sweep_row(token)
                if row is not None:
                    data.setdefault("description", row["description"])
                    data.setdefault("total", row["total"])
                    data.setdefault("created_at", row["created_at"])
                    data["jobs"] = self._job_counts(store, token)
        data.setdefault("archived", False)
        return data

    @staticmethod
    def _job_counts(store: JobStore, token: str) -> Dict[str, object]:
        """One sweep's ``counts``/``total``/``unfinished``/``timing``."""
        counts = store.counts(token)
        return {
            "counts": counts,
            "total": sum(counts.values()),
            "unfinished": store.unfinished(token),
            "timing": store.timing(token),
        }

    # ------------------------------------------------------------------ #
    # /api/queue
    # ------------------------------------------------------------------ #
    def queue(self, token: Optional[str] = None,
              include_jobs: bool = True) -> Dict[str, object]:
        """The data behind ``repro top``/``queue status TOKEN``: job
        states, attempts, owners, worker heartbeats, and a drain ETA.

        With a token (exact or unique prefix) it also carries the job
        counts and timing of :meth:`sweep` and, under ``archived``, the
        archive's record count for the sweep (``None`` if unarchived).
        """
        store = self._jobstore()
        data: Dict[str, object]
        if store is None:
            data = {"available": False,
                    "reason": self._queue_reason(
                        f"no job store at {self.jobstore_path},"
                        f" submit a sweep with 'repro queue submit'"),
                    "sweeps": [], "unfinished": 0}
        elif token is not None:
            token = self.match_token(token)
            with store:
                row = store.sweep_row(token)
                if row is None:
                    raise KeyError(f"sweep {token!r} is archived but no"
                                   f" longer in the job store")
                data = {"available": True, "token": token,
                        "description": row["description"]}
                data.update(self._job_counts(store, token))
                if include_jobs:
                    data["jobs"] = [self._job_dict(job)
                                    for job in store.jobs(token)]
            data["archived"] = self._archived_counts(token)
        else:
            with store:
                sweeps = []
                for row in store.sweeps():
                    counts = store.counts(row["token"])
                    sweeps.append({
                        "token": row["token"],
                        "description": row["description"],
                        "counts": counts,
                        "total": sum(counts.values()),
                    })
                data = {"available": True, "sweeps": sweeps,
                        "unfinished": store.unfinished()}
        data["workers"] = self.workers(sweep=token,
                                       unfinished=int(data["unfinished"]))
        return data

    def _archived_counts(self, token: str) -> Optional[Dict[str, object]]:
        archive = self._archive()
        if archive is None:
            return None
        with archive:
            meta = archive.sweep_meta(token)
        if meta is None:
            return None
        return {key: meta[key] for key in ("records", "total", "complete")}

    @staticmethod
    def _job_dict(job) -> Dict[str, object]:
        return {
            "seq": job.seq,
            "kind": job.kind,
            "trial_index": job.trial_index,
            "part": job.part,
            "state": job.state,
            "attempts": job.attempts,
            "max_attempts": job.max_attempts,
            "lease_owner": job.lease_owner,
            "created_at": job.created_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "run_seconds": job.run_seconds,
            "cost_scalar": bool(job.cost_scalar),
            "error": error_summary(job.error),
        }

    def workers(self, sweep: Optional[str] = None,
                unfinished: int = 0) -> Dict[str, object]:
        """Ledger heartbeats with freshness and an aggregate drain ETA."""
        ledger = self._ledger()
        if ledger is None:
            return {"available": False, "reason": self._no_ledger_reason(),
                    "workers": []}
        with ledger:
            rows = ledger.heartbeats(sweep=sweep)
        now = time.time()
        workers = []
        total_rate = 0.0
        for row in rows:
            age = now - row["updated_at"]
            stale = age > HEARTBEAT_STALE_SECONDS
            rate = row["jobs_per_second"]
            if rate and not stale:
                total_rate += rate
            workers.append({
                "owner": row["owner"],
                "status": "stale" if stale else row["status"],
                "sweep": row["sweep"],
                "job_seq": row["job_seq"],
                "job_kind": row["job_kind"],
                "job_label": row["job_label"],
                "jobs_done": row["jobs_done"],
                "jobs_per_second": rate,
                "seen_seconds_ago": age,
                "stale": stale,
            })
        data: Dict[str, object] = {"available": True, "workers": workers,
                                   "jobs_per_second": total_rate}
        if unfinished and total_rate > 0:
            data["eta_seconds"] = unfinished / total_rate
        return data

    # ------------------------------------------------------------------ #
    # /api/runs
    # ------------------------------------------------------------------ #
    def runs(self, limit: int = 20, sweep: Optional[str] = None,
             kind: Optional[str] = None) -> Dict[str, object]:
        ledger = self._ledger()
        if ledger is None:
            return {"available": False,
                    "reason": self._no_ledger_reason(),
                    "runs": []}
        runs = []
        with ledger:
            for row in ledger.runs(limit=limit, sweep=sweep, kind=kind):
                record = self._run_dict(row)
                record["engine"] = engine_summary(
                    ledger.metrics_for([row["run_id"]]), [row])
                runs.append(record)
        return {"available": True, "runs": runs}

    def run_detail(self, ref: str) -> Dict[str, object]:
        """Resolve a run-id/sweep-token prefix and summarize it.

        Reuses :meth:`RunLedger.resolve` (``KeyError`` -> 404 upstream,
        ``ValueError`` on ambiguity -> 400) and
        :func:`repro.obs.ledger.summarize` for throughput and store and
        checkpoint hit rates recomputed from summed counters.
        """
        ledger = self._ledger()
        if ledger is None:
            raise KeyError(self._no_ledger_reason())
        with ledger:
            scope, rows = ledger.resolve(ref)
            summary = summarize(ledger, rows)
            runs = []
            for row in rows:
                record = self._run_dict(row)
                phases = ledger.phases_for([row["run_id"]])
                record["phases"] = {
                    name: {"seconds": seconds, "count": count}
                    for name, (seconds, count) in sorted(phases.items())
                }
                runs.append(record)
            if scope == "run":
                events = ledger.events_for(run_id=rows[0]["run_id"])
            else:
                events = ledger.events_for(sweep=rows[0]["sweep"])
            event_dicts = [dict(row) for row in events]
        data: Dict[str, object] = {
            "ref": ref,
            "scope": scope,
            "summary": self._summary_dict(summary),
            "runs": runs,
            "events": event_dicts,
        }
        if scope == "run":
            data["manifest"] = self._manifest(rows[0]["run_id"])
        return data

    def _no_ledger_reason(self) -> str:
        if self.ledger_path is None:
            return ("no telemetry directory: set REPRO_TELEMETRY_DIR or"
                    " enable the trace store (REPRO_TRACE_STORE)")
        return (f"no run ledger at {self.ledger_path} -- record one with"
                f" --telemetry or REPRO_TELEMETRY=1")

    def _manifest(self, run_id: str) -> Optional[Dict[str, object]]:
        """The run's JSONL manifest, torn-tail tolerant.

        :func:`read_manifest` stops at the first undecodable line, so a
        manifest whose writer crashed mid-record still serves every intact
        event instead of erroring the endpoint.
        """
        if self.telemetry_dir is None:
            return None
        path = find_manifest(self.telemetry_dir, run_id)
        if path is None:
            return None
        return {"path": str(path), "events": read_manifest(path)}

    @staticmethod
    def _run_dict(row) -> Dict[str, object]:
        data = dict(row)
        if data.get("labels"):
            try:
                data["labels"] = json.loads(data["labels"])
            except (TypeError, ValueError):
                pass
        return data

    @staticmethod
    def _summary_dict(summary: Dict[str, object]) -> Dict[str, object]:
        data = dict(summary)
        phases = data.get("phases")
        if isinstance(phases, dict):
            data["phases"] = {
                name: {"seconds": seconds, "count": count}
                for name, (seconds, count) in sorted(phases.items())
            }
        return data

    # ------------------------------------------------------------------ #
    # Figure sources
    # ------------------------------------------------------------------ #
    def figure_source(self, token: Optional[str] = None):
        """``(sweep meta, ResultSet)`` feeding the figure endpoints.

        Defaults to the newest archived sweep that has at least one
        record; a partial sweep renders partially (the dashboard shows
        bars appearing as workers drain the queue).
        """
        archive = self._archive()
        if archive is None:
            raise KeyError(self._queue_reason(
                f"no result archive at {self.archive_path};"
                f" archive a sweep first"))
        with archive:
            sweeps = archive.list_sweeps()
            candidates = [meta for meta in sweeps if meta["records"]]
            if token is not None:
                token = self.match_token(token)
                meta = archive.sweep_meta(token)
                if meta is None:
                    raise KeyError(f"sweep {token!r} is not archived")
            elif candidates:
                meta = max(candidates,
                           key=lambda m: (m["created_at"], m["token"]))
            else:
                raise KeyError("the result archive holds no records yet")
            records = archive.records(str(meta["token"]))
        return meta, ResultSet.from_records(records)


__all__ = [
    "QUEUE_DIRNAME",
    "ReadModel",
    "TELEMETRY_DIRNAME",
    "open_readonly",
]
