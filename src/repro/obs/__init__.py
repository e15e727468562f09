"""Run telemetry for the simulator: spans, metrics, heartbeats, ledger.

Quick tour::

    from repro import obs

    with obs.start_run("trial", design="mostly-clean-dram") as run:
        with run.span("measure") as span:
            ...                      # the measured work
            span.add("windows", 1)
        run.gauge("accesses", n)

    # later, from the CLI:
    #   repro runs list
    #   repro runs show <run-id or sweep token>

Everything degrades to a strict no-op when ``REPRO_TELEMETRY`` is not set;
see :mod:`repro.obs.core` for the contract.
"""

from repro.obs.core import (ENV_TELEMETRY, ENV_TELEMETRY_DIR, NULL_RUN,
                            NULL_SPAN, PHASE_ORDER, NullRun, NullSpan, Run,
                            Span, current, emit_event, job_context,
                            ledger_path, new_run_id, query_root, start_run,
                            telemetry_enabled, telemetry_root)
from repro.obs.heartbeat import (NULL_HEARTBEAT, WorkerHeartbeat,
                                 worker_heartbeat)
from repro.obs.ledger import (HEARTBEAT_STALE_SECONDS, LEDGER_SCHEMA_VERSION,
                              RunLedger, summarize)
from repro.obs.manifest import find_manifest, manifest_path, read_manifest
from repro.obs.profiling import (ENV_PROFILE, maybe_profile,
                                 profiling_enabled)

__all__ = [
    "ENV_PROFILE",
    "ENV_TELEMETRY",
    "ENV_TELEMETRY_DIR",
    "HEARTBEAT_STALE_SECONDS",
    "LEDGER_SCHEMA_VERSION",
    "NULL_HEARTBEAT",
    "NULL_RUN",
    "NULL_SPAN",
    "NullRun",
    "NullSpan",
    "PHASE_ORDER",
    "Run",
    "RunLedger",
    "Span",
    "WorkerHeartbeat",
    "current",
    "emit_event",
    "find_manifest",
    "job_context",
    "ledger_path",
    "manifest_path",
    "maybe_profile",
    "new_run_id",
    "profiling_enabled",
    "query_root",
    "read_manifest",
    "start_run",
    "summarize",
    "telemetry_enabled",
    "telemetry_root",
    "worker_heartbeat",
]
