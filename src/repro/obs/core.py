"""Run telemetry core: spans, counters, gauges, and run correlation.

This is the zero-dependency heart of the :mod:`repro.obs` subsystem.  The
API is a handful of verbs every layer of the simulator can call without
knowing whether telemetry is on:

* :func:`current` -- the active :class:`Run` (or the shared
  :data:`NULL_RUN` no-op when telemetry is disabled or no run is open);
* ``run.span("measure")`` -- a context manager timing one phase of a run
  with a monotonic clock; same-name spans accumulate, so a loop can open
  one span per iteration and the ledger still shows one ``measure`` row;
* ``run.counter("trace_store_hits")`` / ``run.gauge("accesses", n)`` --
  named metrics attached to the run;
* ``run.event("window", index=3, ...)`` -- a timestamped structured event
  (the per-window stopper-convergence traces, queue lease events, ...).

**The disabled path is a strict no-op.**  When ``REPRO_TELEMETRY`` is not
enabled, :func:`start_run` returns the preallocated :data:`NULL_RUN`, whose
methods are empty and whose spans are the shared :data:`NULL_SPAN`; no
dictionaries are built, no clocks are read, no files are opened.  Hot paths
therefore pay one attribute lookup and one no-op call per *phase* (never per
access) -- the overhead guard in ``tests/test_obs.py`` holds it under 2% of
a 100k-access replay.

When enabled, every run is durably recorded twice:

* a **JSONL manifest** (one file per run, events streamed as they happen,
  so a crashed run leaves a readable partial manifest), and
* a row set in the **SQLite run ledger** (:mod:`repro.obs.ledger`), written
  atomically when the run closes -- the queryable sink behind
  ``repro runs list|show|compare``.

Runs started while an ambient context is active (see :func:`job_context` --
the queue worker wraps each job in one) inherit its labels, which is how a
window-batch job executed by an anonymous worker process still lands in the
ledger under its sweep token and job sequence number.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

logger = logging.getLogger("repro.obs")

#: Environment switch: truthy values enable telemetry for the process.
ENV_TELEMETRY = "REPRO_TELEMETRY"

#: Environment override for the telemetry directory (ledger, manifests,
#: profiles); defaults to ``<trace store root>/telemetry``.
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"

_TRUE_VALUES = frozenset({"1", "on", "true", "yes", "enabled"})

#: File names inside the telemetry root.
LEDGER_FILENAME = "ledger.sqlite"
MANIFEST_DIRNAME = "manifests"
PROFILE_DIRNAME = "profiles"

#: Preferred display order of the standard phases.
#: ``trace_generate`` (a trace-store miss generating and writing the trace)
#: runs inside ``trace_load``; ``restore``, ``window_warm`` and ``replay``
#: (and ``baseline`` on the sampled path) time the steps of each sampled
#: window inside ``measure``.
PHASE_ORDER = ("trace_load", "trace_generate", "warmup", "measure", "restore",
               "window_warm", "replay", "assemble", "baseline")


def telemetry_enabled() -> bool:
    """Whether telemetry is enabled for this process (``REPRO_TELEMETRY``)."""
    return os.environ.get(ENV_TELEMETRY, "").strip().lower() in _TRUE_VALUES


def telemetry_root() -> Optional[Path]:
    """The telemetry directory, or ``None`` when telemetry is disabled.

    ``REPRO_TELEMETRY_DIR`` overrides the location; otherwise the directory
    lives inside the trace store root, so the same ``REPRO_TRACE_STORE``
    switch that isolates tests and relocates caches governs telemetry too.
    Telemetry that is enabled but has nowhere to write (trace store disabled,
    no explicit directory) resolves to ``None`` -- i.e. stays off.
    """
    if not telemetry_enabled():
        return None
    value = os.environ.get(ENV_TELEMETRY_DIR, "").strip()
    if value:
        return Path(value)
    from repro.trace.store import configured_root

    root = configured_root()
    return None if root is None else root / "telemetry"


def query_root() -> Optional[Path]:
    """The telemetry directory for *reading*, ignoring the enable switch.

    ``repro runs`` and ``repro top`` must be able to inspect a ledger that
    earlier (telemetry-enabled) runs wrote even when the current shell does
    not have ``REPRO_TELEMETRY`` set, so this resolves the directory the
    same way :func:`telemetry_root` does minus the enabled check.
    """
    value = os.environ.get(ENV_TELEMETRY_DIR, "").strip()
    if value:
        return Path(value)
    from repro.trace.store import configured_root

    root = configured_root()
    return None if root is None else root / "telemetry"


def ledger_path(root: Optional[Path] = None) -> Optional[Path]:
    """The run-ledger database path for ``root`` (default: configured)."""
    root = telemetry_root() if root is None else Path(root)
    return None if root is None else root / LEDGER_FILENAME


def new_run_id() -> str:
    """A unique, sortable run id: wall-clock prefix + pid + random suffix."""
    return (f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid():x}-"
            f"{os.urandom(4).hex()}")


# --------------------------------------------------------------------- #
# The disabled path: shared, stateless no-op objects.
# --------------------------------------------------------------------- #
class NullSpan:
    """The no-op span.  One shared instance; methods do nothing."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def add(self, name: str, amount: float = 1) -> None:
        pass

    def set(self, name: str, value: float) -> None:
        pass


NULL_SPAN = NullSpan()


class NullRun:
    """The no-op run.  One shared instance; every verb is empty."""

    __slots__ = ()
    enabled = False
    run_id = ""

    def __enter__(self) -> "NullRun":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def span(self, name: str) -> NullSpan:
        return NULL_SPAN

    def counter(self, name: str, amount: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass

    def annotate(self, **labels) -> None:
        pass


NULL_RUN = NullRun()


# --------------------------------------------------------------------- #
# The enabled path.
# --------------------------------------------------------------------- #
class Span:
    """Times one phase of a run (monotonic clock) with attached counters."""

    __slots__ = ("_run", "name", "_started", "counters")
    enabled = True

    def __init__(self, run: "Run", name: str) -> None:
        self._run = run
        self.name = name
        self._started = 0.0
        self.counters: Dict[str, float] = {}

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._run._finish_span(self, time.perf_counter() - self._started)
        return False

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set(self, name: str, value: float) -> None:
        self.counters[name] = value


class Run:
    """One recorded unit of work (a trial, a window batch, an assembly).

    Aggregates same-name spans (total seconds + occurrence count), holds
    named metrics, and streams events into the run's JSONL manifest as they
    happen.  Closing the run (context-manager exit) writes the manifest
    footer and the ledger rows; a run that exits on an exception is recorded
    with ``status='error'`` and the error message, then re-raises.
    """

    enabled = True

    def __init__(self, root: Path, kind: str,
                 labels: Optional[Dict[str, object]] = None) -> None:
        self.root = Path(root)
        self.run_id = new_run_id()
        self.kind = kind
        self.labels: Dict[str, object] = dict(_CONTEXT)
        if labels:
            self.labels.update(labels)
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.started_at = time.time()
        self._started_clock = time.perf_counter()
        #: phase name -> [total seconds, span count]
        self.phases: Dict[str, List[float]] = {}
        self.phase_counters: Dict[str, Dict[str, float]] = {}
        self.metrics: Dict[str, float] = {}
        self.status = "ok"
        self.error: Optional[str] = None
        self._manifest = None

    # ------------------------------------------------------------------ #
    def span(self, name: str) -> Span:
        return Span(self, name)

    def _finish_span(self, span: Span, seconds: float) -> None:
        entry = self.phases.setdefault(span.name, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1
        if span.counters:
            bucket = self.phase_counters.setdefault(span.name, {})
            for key, value in span.counters.items():
                bucket[key] = bucket.get(key, 0) + value
        self._write_manifest_line({
            "event": "phase", "name": span.name,
            "seconds": round(seconds, 9), "counters": span.counters or None,
        })

    def counter(self, name: str, amount: float = 1) -> None:
        self.metrics[name] = self.metrics.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def event(self, kind: str, **fields) -> None:
        self._write_manifest_line(
            {"event": kind, "t": round(time.time() - self.started_at, 6),
             **fields}
        )

    def annotate(self, **labels) -> None:
        self.labels.update(labels)

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Run":
        _CURRENT.append(self)
        self._open_manifest()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if _CURRENT and _CURRENT[-1] is self:
            _CURRENT.pop()
        if exc is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        self.finish()
        return False

    def finish(self) -> None:
        wall = time.perf_counter() - self._started_clock
        self._derive_metrics()
        record = self.to_record(wall)
        self._write_manifest_line({
            "event": "end", "status": self.status, "error": self.error,
            "wall_seconds": round(wall, 9), "phases": {
                name: {"seconds": entry[0], "count": entry[1]}
                for name, entry in self.phases.items()
            },
            "metrics": self.metrics,
        })
        if self._manifest is not None:
            try:
                self._manifest.close()
            except OSError:
                pass
            self._manifest = None
        try:
            from repro.obs.ledger import RunLedger

            path = ledger_path(self.root)
            if path is not None:
                with RunLedger(path) as ledger:
                    ledger.record_run(record)
        except Exception:  # telemetry must never break the measurement
            logger.exception("failed to record run %s in the ledger",
                             self.run_id)

    def _derive_metrics(self) -> None:
        """Fill in cross-cutting rates the queries would otherwise recompute."""
        measure = self.phases.get("measure")
        accesses = self.metrics.get("accesses")
        if measure and measure[0] > 0 and accesses:
            self.metrics["accesses_per_sec"] = accesses / measure[0]

    def to_record(self, wall_seconds: float) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "labels": dict(self.labels),
            "host": self.host,
            "pid": self.pid,
            "started_at": self.started_at,
            "finished_at": self.started_at + wall_seconds,
            "wall_seconds": wall_seconds,
            "status": self.status,
            "error": self.error,
            "phases": {name: (entry[0], entry[1],
                              self.phase_counters.get(name))
                       for name, entry in self.phases.items()},
            "metrics": dict(self.metrics),
        }

    # ------------------------------------------------------------------ #
    def _open_manifest(self) -> None:
        from repro.obs.manifest import open_manifest

        try:
            self._manifest = open_manifest(self.root, self.run_id)
        except OSError:
            self._manifest = None
            return
        self._write_manifest_line({
            "event": "start", "run_id": self.run_id, "kind": self.kind,
            "labels": {k: str(v) for k, v in self.labels.items()},
            "host": self.host, "pid": self.pid,
            "started_at": self.started_at,
        })

    def _write_manifest_line(self, payload: Dict[str, object]) -> None:
        if self._manifest is None:
            return
        try:
            self._manifest.write(json.dumps(payload, sort_keys=True,
                                            default=str) + "\n")
            self._manifest.flush()
        except (OSError, ValueError):
            self._manifest = None


#: Stack of open runs in this process (innermost last).
_CURRENT: List[Run] = []

#: Ambient labels merged into every run started while set (queue workers
#: wrap job execution in :func:`job_context` so trial runs carry their
#: sweep token / job seq / worker owner).
_CONTEXT: Dict[str, object] = {}


def current() -> Union[Run, NullRun]:
    """The innermost open run, or :data:`NULL_RUN` when none is active."""
    return _CURRENT[-1] if _CURRENT else NULL_RUN


def start_run(kind: str, **labels) -> Union[Run, NullRun]:
    """Open a run (usable as a context manager), or :data:`NULL_RUN`.

    The enabled check happens *before* any label is materialized, so the
    disabled path allocates nothing.  Callers with label values that are
    expensive to compute should pass callables via :meth:`Run.annotate`
    after checking ``run.enabled`` instead.
    """
    root = telemetry_root()
    if root is None:
        return NULL_RUN
    return Run(root, kind, labels)


class job_context:
    """Context manager installing ambient labels for runs started inside.

    Nested contexts stack (inner values win); the previous labels are
    restored on exit.  Used by the queue worker so that every run a job
    opens is correlated to its sweep token, job sequence, and lease owner.
    """

    __slots__ = ("_labels", "_saved")

    def __init__(self, **labels) -> None:
        self._labels = labels
        self._saved: Dict[str, object] = {}

    def __enter__(self) -> "job_context":
        self._saved = dict(_CONTEXT)
        _CONTEXT.update(self._labels)
        return self

    def __exit__(self, *exc_info) -> bool:
        _CONTEXT.clear()
        _CONTEXT.update(self._saved)
        return False


def emit_event(kind: str, sweep: Optional[str] = None, **detail) -> None:
    """Record a standalone structured event in the ledger (and the log).

    This is the channel for queue-level happenings that have no run of
    their own -- lease theft, retry backoff, lease reclaim.  Always logs at
    DEBUG (INFO for theft/backoff so ``-v`` worker shells surface them);
    writes a ledger row only when telemetry is enabled.  Never raises.
    """
    level = logging.INFO if kind in ("lease_theft", "job_backoff",
                                     "job_failed", "lease_reclaimed") \
        else logging.DEBUG
    logger.log(level, "%s %s %s", kind, sweep or "",
               " ".join(f"{k}={v}" for k, v in detail.items()))
    path = ledger_path()
    if path is None:
        return
    try:
        from repro.obs.ledger import RunLedger

        with RunLedger(path) as ledger:
            ledger.record_event(kind, sweep=sweep,
                                run_id=current().run_id or None,
                                detail=detail)
    except Exception:
        logger.exception("failed to record event %s", kind)


__all__ = [
    "ENV_TELEMETRY",
    "ENV_TELEMETRY_DIR",
    "LEDGER_FILENAME",
    "MANIFEST_DIRNAME",
    "NULL_RUN",
    "NULL_SPAN",
    "NullRun",
    "NullSpan",
    "PHASE_ORDER",
    "PROFILE_DIRNAME",
    "Run",
    "Span",
    "current",
    "emit_event",
    "job_context",
    "ledger_path",
    "new_run_id",
    "query_root",
    "start_run",
    "telemetry_enabled",
    "telemetry_root",
]
