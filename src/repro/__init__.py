"""Unison Cache reproduction library.

A from-scratch, trace-driven Python reproduction of *Unison Cache: A Scalable
and Effective Die-Stacked DRAM Cache* (Jevdjic, Loh, Kaynak, Falsafi --
MICRO 2014), including the Alloy Cache and Footprint Cache baselines, a DRAM
timing model, an analytical performance model, synthetic server-workload
generators, and a declarative experiment layer that regenerates every table
and figure of the paper's evaluation.

Quickstart -- declare a grid, run it (in parallel, if you like), query and
persist the results::

    from repro import ExperimentConfig, ResultSet, SweepSpec, run_sweep

    spec = SweepSpec(
        designs=("unison", "alloy", "footprint"),
        workloads=("Web Search", "TPC-H Queries"),
        capacities=("512MB", "1GB", "2GB"),
        config=ExperimentConfig(scale=512, num_accesses=60_000),
    )
    results = run_sweep(spec, workers=4)   # ResultSet; workers=1 is serial

    print(results.table())                 # fixed-width summary
    unison = results.filter(design="unison", capacity="1GB")
    print(unison.metric("miss_ratio"))
    results.to_json("sweep.json")          # lossless; also .to_csv(...)
    cached = ResultSet.from_json("sweep.json")

The same sweep is available from the shell: ``python -m repro --designs
unison alloy --capacities 512MB 1GB --jobs 4`` prints the table and exports
JSON.  Designs are pluggable: every design is a
:class:`repro.dramcache.spec.DesignSpec` of policy components, registered
with ``DESIGNS.register_spec``, and anything registered is immediately
usable in specs, sweeps, and the CLI.

Sweeps scale past one process through the durable work queue
(:mod:`repro.queue`): ``SweepExecutor(queue=SweepService()).run(spec)``
plans the grid into idempotent on-disk jobs, survives worker crashes
(``kill -9`` costs only in-flight jobs), and archives every result --
``repro queue submit|work|status|resume`` drive the same machinery from
the shell.

Long traces measure through checkpointed windowed sampling (the paper's
SimFlex-style methodology, :mod:`repro.sampling`) instead of full replay:
add ``sampling=SamplingConfig()`` to a sweep, or use
``repro sample --designs unison alloy`` from the shell.  A one-off trial
is one :class:`ExperimentSpec` through :func:`run_trial`::

    from repro import ExperimentConfig, ExperimentSpec
    from repro.sim.executor import run_trial

    result = run_trial(ExperimentSpec(
        "unison", "Web Search", "1GB",
        config=ExperimentConfig(scale=256, num_accesses=60_000)))
"""

from repro.baselines import NoDramCache
from repro.config import (
    AlloyCacheConfig,
    FootprintCacheConfig,
    SystemConfig,
    UnisonCacheConfig,
)
from repro.core import UnisonRowLayout
from repro.queue import ResultArchive, SweepService
from repro.sampling import (
    SampledRun,
    SamplingConfig,
    WindowedSampler,
)
from repro.sim import (
    DESIGN_NAMES,
    DESIGNS,
    DesignRegistry,
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    PerformanceModel,
    ResultSet,
    SweepExecutor,
    SweepSpec,
    make_design,
    run_sweep,
)
from repro.trace import (
    AccessType,
    MemoryAccess,
    TraceFormatError,
    TraceStore,
)
from repro.workloads import (
    ALL_WORKLOADS,
    CLOUDSUITE_WORKLOADS,
    SyntheticWorkload,
    TraceFileWorkload,
    WorkloadProfile,
    workload_by_name,
)

__version__ = "1.2.0"

__all__ = [
    "NoDramCache",
    "UnisonRowLayout",
    "AlloyCacheConfig",
    "FootprintCacheConfig",
    "UnisonCacheConfig",
    "SystemConfig",
    "DESIGN_NAMES",
    "DESIGNS",
    "DesignRegistry",
    "make_design",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "SweepSpec",
    "SweepExecutor",
    "SweepService",
    "ResultArchive",
    "run_sweep",
    "ResultSet",
    "PerformanceModel",
    "SampledRun",
    "SamplingConfig",
    "WindowedSampler",
    "AccessType",
    "MemoryAccess",
    "TraceFormatError",
    "TraceStore",
    "WorkloadProfile",
    "SyntheticWorkload",
    "TraceFileWorkload",
    "ALL_WORKLOADS",
    "CLOUDSUITE_WORKLOADS",
    "workload_by_name",
    "__version__",
]
