"""Simulation and experiment layer.

* :mod:`repro.sim.registry` -- the design registry: every design registers
  a :class:`~repro.dramcache.spec.DesignSpec` via
  :meth:`~repro.sim.registry.DesignRegistry.register_spec`.
* :mod:`repro.sim.factory` -- ``make_design``, now a thin registry lookup
  kept for backwards compatibility, and the registry-derived
  :data:`~repro.sim.factory.DESIGN_NAMES`.
* :mod:`repro.sim.spec` -- declarative experiment descriptions:
  :class:`~repro.sim.spec.ExperimentSpec` (one trial) and
  :class:`~repro.sim.spec.SweepSpec` (designs x workloads x capacities x
  overrides), validated at construction time.
* :mod:`repro.sim.executor` -- serial and process-parallel sweep execution
  with a shared trace/baseline cache.
* :mod:`repro.sim.resultset` -- :class:`~repro.sim.resultset.ResultSet`:
  filtering, grouping, tabulation, and lossless JSON/CSV round-trips.
* :mod:`repro.sim.performance` -- the analytic performance model that converts
  measured DRAM-cache behaviour into the user-IPC / speedup numbers of
  Figures 7 and 8.
* :mod:`repro.sim.experiment` -- experiment configuration, trace building,
  the warm/replay helpers, and the uniform result record.

The SimFlex-style windowed sampler lives in :mod:`repro.sampling` and
measures every trial: a full replay is its one-window plan, and
``SweepSpec(sampling=SamplingConfig())`` switches a sweep to many windows.

Only the registry is imported eagerly; everything else loads on first
attribute access (PEP 562).  This keeps :mod:`repro.sim.registry` importable
from the design catalog, which registers its specs at import time, without
creating an import cycle through this package.
"""

from importlib import import_module

from repro.sim.registry import (  # noqa: F401  (re-exported)
    DESIGNS,
    DesignBuildContext,
    DesignEntry,
    DesignRegistry,
)

#: Attribute name -> defining module, resolved lazily on first access.
_LAZY_EXPORTS = {
    "PerformanceModel": "repro.sim.performance",
    "DESIGN_NAMES": "repro.sim.factory",
    "design_names": "repro.sim.factory",
    "make_design": "repro.sim.factory",
    "unison_design_for_ways": "repro.sim.factory",
    "ExperimentConfig": "repro.sim.experiment",
    "ExperimentResult": "repro.sim.experiment",
    "ExperimentRunner": "repro.sim.experiment",
    "ExperimentSpec": "repro.sim.spec",
    "SweepSpec": "repro.sim.spec",
    "ResultSet": "repro.sim.resultset",
    "SweepExecutor": "repro.sim.executor",
    "run_sweep": "repro.sim.executor",
    "run_trial": "repro.sim.executor",
}

__all__ = [
    "DESIGNS",
    "DesignBuildContext",
    "DesignEntry",
    "DesignRegistry",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
