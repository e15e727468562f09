"""Batch replay: the entry point the simulation layers call.

:func:`replay_design` services a request stream on a design -- timed
measurement, with every statistic counted -- and :func:`warm_design` is a
replay followed by ``reset_stats()``, the functional-warming contract.
Both dispatch to a fused kernel (:mod:`repro.engine.kernels`) when the
composition is covered and the batch engine is enabled, and fall back to
the scalar engine (``DramCacheModel.access`` per request) otherwise; the
design's state and statistics come out bit-identical either way.  Both
report which engine ran so callers can tag telemetry, and
:func:`fallback_reason` says why a design would run on the scalar path.

Enablement: the batch engine is on by default.  ``REPRO_BATCH=0`` (or
``false``/``no``/``off``) disables it process-wide for warming and replay
alike; the CLI's ``--batch-warming/--no-batch-warming`` flags override the
environment via :func:`set_batch_enabled`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.engine.kernels import select_kernel, uncovered_component
from repro.engine.trace_array import as_records, make_columns

_FALSY = ("0", "false", "no", "off")

# CLI override: None defers to the REPRO_BATCH environment variable.
_enabled_override: Optional[bool] = None


def batch_enabled() -> bool:
    """Whether the batch engine may run (CLI override, then REPRO_BATCH)."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get("REPRO_BATCH", "1").strip().lower() not in _FALSY


def set_batch_enabled(enabled: Optional[bool]) -> None:
    """Force the batch engine on/off; ``None`` defers to ``REPRO_BATCH``."""
    global _enabled_override
    _enabled_override = enabled


def fallback_reason(design) -> Optional[str]:
    """Why ``design`` runs on the scalar engine, or None if a kernel does.

    ``"REPRO_BATCH=0"`` when the batch engine is disabled (by the variable
    or ``--no-batch-warming``), else the type name of the first component
    no kernel covers.
    """
    if not batch_enabled():
        return "REPRO_BATCH=0"
    return uncovered_component(design)


def replay_design(design, accesses) -> str:
    """Service ``accesses`` on ``design``; returns ``"batch"`` or ``"scalar"``.

    ``accesses`` may be a numpy structured record array (see
    :mod:`repro.engine.trace_array`) or any iterable of ``MemoryAccess``.
    Statistics accumulate exactly as per-request ``design.access`` calls
    would accumulate them.
    """
    if batch_enabled():
        kernel = select_kernel(design)
        if kernel is not None:
            columns = make_columns(accesses)
            if columns is not None:
                if columns.n:
                    kernel(design, columns)
                return "batch"
    for request in as_records(accesses):
        design.access(request)
    return "scalar"


def warm_design(design, accesses) -> str:
    """Warm ``design`` with ``accesses``; returns ``"batch"`` or ``"scalar"``.

    A replay followed by ``reset_stats()``: the design ends up warmed *and*
    with statistics reset, the exact contract of the scalar ``warm_up``.
    """
    engine = replay_design(design, accesses)
    design.reset_stats()
    return engine


__all__ = ["batch_enabled", "fallback_reason", "replay_design",
           "set_batch_enabled", "warm_design"]
