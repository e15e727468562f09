"""Declarative experiment descriptions.

An :class:`ExperimentSpec` names one trial -- one (design, workload, capacity)
cell plus the run configuration -- and a :class:`SweepSpec` names a whole
grid: ``designs x workloads x capacities x overrides``.  Both validate at
construction time (unknown designs, unknown workloads, unparsable capacities,
and illegal overrides all fail *before* any simulation runs), so a multi-hour
sweep can never die on a typo in its last cell.

Specs are plain frozen dataclasses: picklable (the parallel executor ships
them to worker processes), hashable-free-of-surprises, and independent of any
runner state.  Execution lives in :mod:`repro.sim.executor`.

Example::

    from repro import SweepSpec, ExperimentConfig, run_sweep

    spec = SweepSpec(
        designs=("unison", "alloy"),
        workloads=("Web Search", "Data Serving"),
        capacities=("512MB", "1GB"),
        config=ExperimentConfig(scale=1024, num_accesses=30_000),
    )
    results = run_sweep(spec, workers=4)
    print(results.table())
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.config.system import SystemConfig
from repro.sampling.windows import SamplingConfig
from repro.sim.experiment import ExperimentConfig, Workload
from repro.sim.registry import DESIGNS
from repro.sim.factory import unison_design_for_ways  # also ensures registration
from repro.utils.units import format_size, parse_size, SizeLike
from repro.workloads.cloudsuite import workload_by_name
from repro.workloads.profile import WorkloadProfile
from repro.workloads.tracefile import TraceFileWorkload

#: A workload may be a profile, a trace-file workload, a paper name
#: ("Web Search"), or a trace-file reference ("trace:/path/to/file.rptr" --
#: a bare path to an existing trace file also works).
WorkloadLike = Union[WorkloadProfile, TraceFileWorkload, str]

#: Override keys that do not map onto :class:`ExperimentConfig` fields.
_TRIAL_OVERRIDE_KEYS = ("associativity", "label", "sampling")


def _coerce_sampling(sampling) -> Optional[SamplingConfig]:
    """Accept a :class:`SamplingConfig`, a kwargs mapping, or ``None``."""
    if sampling is None or isinstance(sampling, SamplingConfig):
        return sampling
    if isinstance(sampling, Mapping):
        return SamplingConfig(**sampling)
    raise ValueError(
        f"sampling must be a SamplingConfig, a mapping of its fields, or "
        f"None; got {sampling!r}"
    )


def _coerce_workload(workload: WorkloadLike) -> Workload:
    if isinstance(workload, (WorkloadProfile, TraceFileWorkload)):
        return workload
    if workload.startswith("trace:"):
        return TraceFileWorkload(path=workload[len("trace:"):])
    try:
        return workload_by_name(workload)
    except KeyError as exc:
        # Not a known workload name: accept a bare path to an existing
        # trace file, otherwise report the name error.
        if Path(workload).is_file():
            return TraceFileWorkload(path=workload)
        raise ValueError(exc.args[0]) from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-specified trial, validated at construction."""

    design: str
    workload: Workload
    #: Paper capacity, normalized to its canonical string form ("1GB").
    capacity: str
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: Optional associativity override (Unison variants only).
    associativity: Optional[int] = None
    #: Name recorded in the result; defaults to ``design``.
    label: Optional[str] = None
    #: Optional architectural configuration; ``None`` means the paper's.
    system: Optional[SystemConfig] = None
    #: ``None`` = full replay; a :class:`SamplingConfig` switches the trial
    #: to checkpointed windowed sampling (see :mod:`repro.sampling`).
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        entry = DESIGNS.resolve(self.design)  # raises for unknown designs
        object.__setattr__(self, "design", entry.name)
        object.__setattr__(self, "workload", _coerce_workload(self.workload))
        object.__setattr__(
            self, "capacity", format_size(parse_size(self.capacity))
        )
        object.__setattr__(self, "sampling", _coerce_sampling(self.sampling))
        if self.associativity is not None:
            if not entry.supports_associativity:
                raise ValueError(
                    f"design {self.design!r} does not take an associativity "
                    f"override"
                )
            if self.associativity <= 0:
                raise ValueError("associativity must be positive")

    @property
    def result_label(self) -> str:
        """The design name this trial reports under."""
        return self.label or self.design

    def identity(self) -> str:
        """The canonical identity string of everything this trial computes.

        Combines the design's registry token (its full component recipe),
        the trace token (profile fields + generator version for synthetic
        workloads, path/size/mtime and any format override for files),
        every build and run parameter, and the model behavior version.  Two trials with equal identities are
        guaranteed to produce bit-identical results, so the work queue uses
        a hash of this string as the idempotency key of the trial's jobs --
        and any change to a design, a workload, the generator, or the model
        implementation yields new keys instead of reusing stale results.
        """
        from repro.dramcache.base import MODEL_BEHAVIOR_VERSION
        from repro.trace.store import trace_token

        system = "default" if self.system is None else repr(self.system)
        return "|".join([
            f"model=v{MODEL_BEHAVIOR_VERSION}",
            f"design={DESIGNS.resolve(self.design).token()}",
            f"trace={trace_token(self.workload, self.config)}",
            f"capacity={self.capacity}",
            f"config={self.config!r}",
            f"associativity={self.associativity}",
            f"label={self.label}",
            f"system={system}",
            f"sampling={self.sampling!r}",
        ])

    def describe(self) -> str:
        """Compact one-line description for logs and progress output."""
        mode = "" if self.sampling is None else (
            f", sampled <= {self.sampling.max_windows} windows"
        )
        return (f"{self.result_label} / {self.workload.name} @ {self.capacity} "
                f"(scale 1/{self.config.scale}, seed {self.config.seed}{mode})")


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid: designs x workloads x capacities x overrides.

    ``overrides`` is an extra grid axis of keyword dictionaries.  Each
    dictionary may set per-trial knobs (``associativity``, ``label``) and/or
    any :class:`ExperimentConfig` field (``seed``, ``scale``,
    ``num_accesses``, ...); one empty dictionary -- the default -- means the
    plain grid.  The full trial list is materialized and validated when the
    spec is constructed.
    """

    designs: Sequence[str]
    workloads: Sequence[WorkloadLike]
    capacities: Sequence[SizeLike]
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    overrides: Sequence[Mapping[str, object]] = (
        # one no-op override == the plain designs x workloads x capacities grid
        {},
    )
    system: Optional[SystemConfig] = None
    #: Default measurement mode of every trial: ``None`` = full replay, a
    #: :class:`SamplingConfig` = windowed sampling.  Individual overrides may
    #: set their own ``sampling`` (including ``None`` to force full replay),
    #: so one grid can compare sampled against full cells directly.
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sampling", _coerce_sampling(self.sampling))
        for axis in ("designs", "workloads", "capacities", "overrides"):
            if not tuple(getattr(self, axis)):
                raise ValueError(f"SweepSpec.{axis} must not be empty")
        # Normalize design names through the registry (also validates them
        # eagerly, and keeps ``spec.designs`` usable as ResultSet filter keys
        # regardless of the caller's capitalization).
        object.__setattr__(
            self, "designs",
            tuple(DESIGNS.resolve(d).name for d in self.designs),
        )
        object.__setattr__(
            self, "workloads",
            tuple(_coerce_workload(w) for w in self.workloads),
        )
        object.__setattr__(
            self, "capacities",
            tuple(format_size(parse_size(c)) for c in self.capacities),
        )
        object.__setattr__(
            self, "overrides", tuple(dict(o) for o in self.overrides)
        )
        for override in self.overrides:
            unknown = [k for k in override
                       if k not in _TRIAL_OVERRIDE_KEYS
                       and k not in _CONFIG_FIELDS]
            if unknown:
                raise ValueError(
                    f"unknown override keys {unknown}; allowed: "
                    f"{list(_TRIAL_OVERRIDE_KEYS) + list(_CONFIG_FIELDS)}"
                )
        # Materialize eagerly: every cell is validated here, at construction.
        object.__setattr__(self, "_trials", self._build_trials())

    # ------------------------------------------------------------------ #
    def _build_trials(self) -> Tuple[ExperimentSpec, ...]:
        trials = []
        for design in self.designs:
            for workload in self.workloads:
                for capacity in self.capacities:
                    for override in self.overrides:
                        trials.append(self._trial(design, workload, capacity,
                                                  override))
        return tuple(trials)

    def _trial(self, design: str, workload: Workload, capacity: str,
               override: Mapping[str, object]) -> ExperimentSpec:
        config_kwargs = {k: v for k, v in override.items()
                         if k in _CONFIG_FIELDS}
        config = (replace(self.config, **config_kwargs) if config_kwargs
                  else self.config)
        sampling = _coerce_sampling(override.get("sampling", self.sampling))
        associativity = override.get("associativity")
        label = override.get("label")
        if label is None and associativity is not None:
            if design == "unison":
                # Canonical Figure 5 names (unison-dm/unison/unison-32way)
                # so overridden and plain grids report consistently.
                label = unison_design_for_ways(associativity)[1]
            else:
                label = f"{design}-{associativity}way"
        return ExperimentSpec(
            design=design,
            workload=workload,
            capacity=capacity,
            config=config,
            associativity=associativity,
            label=label,
            system=self.system,
            sampling=sampling,
        )

    # ------------------------------------------------------------------ #
    def trials(self) -> Tuple[ExperimentSpec, ...]:
        """All cells of the grid, in deterministic nested order."""
        return self._trials

    def __len__(self) -> int:
        return len(self._trials)

    def describe(self) -> str:
        """Human-readable summary of the grid shape."""
        return (
            f"{len(self.designs)} designs x {len(self.workloads)} workloads "
            f"x {len(self.capacities)} capacities x "
            f"{len(self.overrides)} overrides = {len(self)} trials "
            f"(scale 1/{self.config.scale}, "
            f"{self.config.num_accesses} accesses each)"
        )


__all__ = ["ExperimentSpec", "SweepSpec", "Workload", "WorkloadLike"]
