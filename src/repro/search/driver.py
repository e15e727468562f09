"""Successive-halving search over the composable design space.

The driver wires the declarative :class:`~repro.search.space.SearchSpace`
to the durable queue: a seeded random draw of candidate compositions runs
through *rungs* of increasing measurement fidelity, where each rung widens
the sampled window budget and tightens the CI target
(:class:`~repro.sampling.windows.SamplingConfig`), prunes the candidates
whose confidence interval is dominated beyond noise
(:func:`~repro.search.frontier.prune_by_interval`), and promotes the rest.

Every rung is one idempotent :class:`~repro.sim.spec.SweepSpec` submitted
through the :class:`~repro.queue.service.SweepService`, so a search killed
mid-rung resumes exactly where it stopped: finished jobs are never re-run,
fully archived rungs cost zero simulation, and the search's own progress
lives in a JSON state file under ``<queue dir>/tune/`` written atomically
after every step.

The final rung measures the survivors *and* the six paper designs at the
same fidelity, feeding the CI-aware Pareto frontier
(:func:`~repro.search.frontier.pareto_frontier`); frontier candidates are
the search's winners, registered in the design registry under their stable
``tune-<digest>`` names so they re-run like any shipped design.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dramcache.spec import ComponentSpec, DesignSpec
from repro.obs.core import emit_event, start_run
from repro.queue.service import PathLike, SweepService
from repro.sampling.windows import SamplingConfig
from repro.search.frontier import (
    OBJECTIVES,
    DesignPoint,
    dominated_baselines,
    interval_from_record,
    pareto_frontier,
    prune_by_interval,
    sram_overhead_bytes,
)
from repro.search.space import ROLES, SearchSpace, default_space
from repro.sim.experiment import ExperimentConfig
from repro.sim.registry import DESIGNS
from repro.sim.spec import SweepSpec
from repro.stats.confidence import ConfidenceInterval
from repro.utils.units import parse_size

#: The paper's six designs, measured alongside the final rung's survivors.
PAPER_BASELINES = ("unison", "alloy", "footprint", "loh_hill", "ideal",
                   "no_cache")
#: Baselines that anchor the axes but stay out of the dominance pool
#: (ideal would trivially dominate the whole frontier away).
REFERENCE_DESIGNS = ("ideal", "no_cache")

STATE_VERSION = 1
TUNE_DIRNAME = "tune"


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TuneConfig:
    """Everything one search run depends on (hashed into its token)."""

    workload: str = "Web Search"
    capacity: str = "1GB"
    seed: int = 1
    #: Candidates drawn (seeded) from the space; the whole space when the
    #: space is smaller.
    num_candidates: int = 36
    rungs: int = 3
    #: Halving factor: each rung keeps ~1/eta of its designs and multiplies
    #: the window budget (and divides the CI target) by eta.
    eta: int = 2
    scale: int = 1024
    num_accesses: int = 120_000
    num_cores: int = 16
    window_accesses: int = 2_000
    warmup_accesses: int = 2_000
    checkpoint_accesses: int = 20_000
    min_windows: int = 3
    #: Rung 0's window budget; rung r gets ``base_windows * eta**r``.
    base_windows: int = 4
    #: Rung 0's CI target; rung r gets ``base_relative_error / eta**r``.
    base_relative_error: float = 0.10
    include_baselines: bool = True

    def __post_init__(self) -> None:
        if self.rungs < 1:
            raise ValueError("a search needs at least one rung")
        if self.eta < 2:
            raise ValueError("eta must be at least 2 (nothing halves below)")
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be positive")
        if self.base_windows < self.min_windows:
            raise ValueError("base_windows must be >= min_windows")
        parse_size(self.capacity)  # fail at declaration, not mid-search

    def rung_sampling(self, rung: int) -> SamplingConfig:
        """Rung ``rung``'s measurement fidelity: wider budget, tighter CI."""
        factor = self.eta ** rung
        return SamplingConfig(
            window_accesses=self.window_accesses,
            warmup_accesses=self.warmup_accesses,
            checkpoint_accesses=self.checkpoint_accesses,
            min_windows=self.min_windows,
            max_windows=self.base_windows * factor,
            target_relative_error=self.base_relative_error / factor,
            seed=self.seed,
        )

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(scale=self.scale,
                                num_accesses=self.num_accesses,
                                num_cores=self.num_cores, seed=self.seed)

    def to_config(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_config(cls, config: Dict[str, object]) -> "TuneConfig":
        return cls(**config)


# --------------------------------------------------------------------- #
# DesignSpec <-> JSON (the state file persists the candidate recipes so a
# resumed process re-registers exactly the designs it measured).
# --------------------------------------------------------------------- #
def serialize_spec(spec: DesignSpec) -> Dict[str, object]:
    return {
        "name": spec.name,
        "description": spec.description,
        "components": {
            role: [getattr(spec, role).kind, getattr(spec, role).params_dict()]
            for role in ROLES
        },
    }


def deserialize_spec(data: Dict[str, object]) -> DesignSpec:
    components = {
        role: ComponentSpec(kind, params)
        for role, (kind, params) in data["components"].items()
    }
    return DesignSpec(name=data["name"], description=data["description"],
                      **components)


# --------------------------------------------------------------------- #
@dataclass
class TuneState:
    """The durable progress of one search (JSON under ``<queue>/tune/``)."""

    token: str
    config: TuneConfig
    space_config: Dict[str, object]
    candidates: List[Dict[str, object]]
    rungs: List[Dict[str, object]] = field(default_factory=list)
    status: str = "planned"
    winners: List[str] = field(default_factory=list)
    frontier: Optional[Dict[str, object]] = None

    def candidate_specs(self) -> List[DesignSpec]:
        return [deserialize_spec(data) for data in self.candidates]

    def candidate_names(self) -> List[str]:
        return [data["name"] for data in self.candidates]

    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, object]:
        return {
            "version": STATE_VERSION,
            "token": self.token,
            "status": self.status,
            "config": self.config.to_config(),
            "space": self.space_config,
            "candidates": self.candidates,
            "rungs": self.rungs,
            "winners": self.winners,
            "frontier": self.frontier,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TuneState":
        if data.get("version") != STATE_VERSION:
            raise ValueError(
                f"tune state version {data.get('version')!r} is not "
                f"supported (expected {STATE_VERSION})"
            )
        return cls(
            token=data["token"],
            config=TuneConfig.from_config(data["config"]),
            space_config=data["space"],
            candidates=data["candidates"],
            rungs=data["rungs"],
            status=data["status"],
            winners=data.get("winners", []),
            frontier=data.get("frontier"),
        )

    def save(self, path: Path) -> None:
        """Atomic write: a kill between rungs never corrupts the state."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Path) -> "TuneState":
        return cls.from_json(json.loads(Path(path).read_text()))


def search_token(config: TuneConfig, space: SearchSpace,
                 names: Sequence[str]) -> str:
    payload = json.dumps(
        {"config": config.to_config(), "space": space.to_config(),
         "candidates": list(names)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------------- #
class TuneSearch:
    """Plan, run, resume, and analyze one successive-halving search."""

    def __init__(self, config: TuneConfig,
                 space: Optional[SearchSpace] = None,
                 service: Optional[SweepService] = None,
                 queue_dir: Optional[PathLike] = None) -> None:
        self.config = config
        self.space = space or default_space()
        self.service = service or SweepService(queue_dir)
        self.tune_dir = self.service.queue_dir / TUNE_DIRNAME

    # ------------------------------------------------------------------ #
    # Planning and state persistence
    # ------------------------------------------------------------------ #
    def select_candidates(self) -> List[DesignSpec]:
        """The seeded draw: deterministic for (space, seed, count)."""
        pool = self.space.candidates()
        if len(pool) <= self.config.num_candidates:
            return pool
        rng = random.Random(self.config.seed)
        chosen = sorted(rng.sample(range(len(pool)),
                                   self.config.num_candidates))
        return [pool[index] for index in chosen]

    def state_path(self, token: str) -> Path:
        return self.tune_dir / f"{token}.json"

    def plan(self) -> TuneState:
        """Create (or reload) the search state for this config + space."""
        specs = self.select_candidates()
        token = search_token(self.config, self.space,
                             [spec.name for spec in specs])
        path = self.state_path(token)
        if path.is_file():
            return TuneState.load(path)
        state = TuneState(
            token=token,
            config=self.config,
            space_config=self.space.to_config(),
            candidates=[serialize_spec(spec) for spec in specs],
        )
        state.save(path)
        return state

    @contextmanager
    def _candidates_registered(self, state: TuneState) -> Iterator[None]:
        """Install the candidate specs in the design registry for one call.

        Workers fork from this process (or assemble in it), so registering
        here is what lets ``ExperimentSpec`` cells resolve ``tune-*`` names.
        When the call returns or raises, the candidates it registered leave
        again unless they are among ``state.winners``.
        """
        before = set(DESIGNS)
        for spec in state.candidate_specs():
            DESIGNS.register_spec(spec, replace=True)
        try:
            yield
        finally:
            for name in state.candidate_names():
                if name not in before and name not in state.winners:
                    DESIGNS.unregister(name)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def _rung_designs(self, state: TuneState, rung: int) -> List[str]:
        if rung == 0:
            return state.candidate_names()
        return list(state.rungs[rung - 1]["survivors"])

    def _rung_spec(self, state: TuneState, rung: int,
                   designs: Sequence[str]) -> SweepSpec:
        final = rung == self.config.rungs - 1
        sweep_designs = list(designs)
        if final and self.config.include_baselines:
            sweep_designs += [name for name in PAPER_BASELINES
                              if name not in sweep_designs]
        return SweepSpec(
            designs=tuple(sweep_designs),
            workloads=(self.config.workload,),
            capacities=(self.config.capacity,),
            config=self.config.experiment_config(),
            sampling=self.config.rung_sampling(rung),
        )

    def run(self, state: Optional[TuneState] = None,
            workers: Optional[int] = 1) -> TuneState:
        """Drive every unfinished rung to completion and build the frontier.

        Safe to call on a half-finished search: rungs whose sweeps are
        archived re-run zero jobs, and a rung interrupted mid-flight
        resumes from the job store (idempotent submit + lease recovery).
        """
        state = state or self.plan()
        path = self.state_path(state.token)
        if state.status == "planned":
            state.status = "running"
            state.save(path)
        with self._candidates_registered(state):
            with start_run("tune", sweep=state.token,
                           candidates=len(state.candidates),
                           rungs=self.config.rungs) as obs_run:
                for rung in range(self.config.rungs):
                    self._run_rung(state, rung, workers, obs_run)
                    state.save(path)
            state.frontier = self.build_frontier(state)
            state.winners = list(state.frontier["winners"])
        state.status = "complete"
        state.save(path)
        return state

    def _run_rung(self, state: TuneState, rung: int,
                  workers: Optional[int], obs_run) -> None:
        if rung < len(state.rungs) and state.rungs[rung]["status"] == "done":
            return
        designs = self._rung_designs(state, rung)
        spec = self._rung_spec(state, rung, designs)
        if rung >= len(state.rungs):
            sampling = self.config.rung_sampling(rung)
            state.rungs.append({
                "rung": rung,
                "designs": list(designs),
                "max_windows": sampling.max_windows,
                "target_relative_error": sampling.target_relative_error,
                "sweep_token": None,
                "status": "pending",
                "survivors": [],
                "pruned": [],
                "results": {},
            })
        record = state.rungs[rung]

        outcome = self.service.submit(spec)
        record["sweep_token"] = outcome.token
        state.save(self.state_path(state.token))

        with obs_run.span(f"rung{rung}"):
            results = self.service.run(spec, workers=workers)

        by_name: Dict[str, object] = {res.design: res for res in results}
        record["results"] = {
            name: {
                "miss_ratio": interval_from_record(res, "miss_ratio").mean,
                "miss_half_width":
                    interval_from_record(res, "miss_ratio").half_width,
                "speedup": interval_from_record(res, "speedup").mean,
                "speedup_half_width":
                    interval_from_record(res, "speedup").half_width,
            }
            for name, res in sorted(by_name.items())
        }

        final = rung == self.config.rungs - 1
        if final:
            survivors, pruned = list(designs), []
        else:
            entries = [
                (name, ConfidenceInterval(
                    mean=record["results"][name]["miss_ratio"],
                    half_width=record["results"][name]["miss_half_width"]))
                for name in designs
            ]
            keep = max(1, math.ceil(len(designs) / self.config.eta))
            survivors, pruned = prune_by_interval(entries, keep)
        record["survivors"] = survivors
        record["pruned"] = pruned
        record["status"] = "done"
        emit_event("tune.rung", sweep=state.token, rung=rung,
                   candidates=len(designs), survivors=len(survivors),
                   pruned=len(pruned), sweep_token=outcome.token)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def _final_record(self, state: TuneState) -> Dict[str, object]:
        if not state.rungs or state.rungs[-1]["status"] != "done":
            raise RuntimeError(
                f"search {state.token} has no completed final rung yet"
            )
        return state.rungs[-1]

    def _spec_of(self, state: TuneState, name: str) -> DesignSpec:
        for data in state.candidates:
            if data["name"] == name:
                return deserialize_spec(data)
        return DESIGNS.resolve(name).spec

    def build_frontier(self, state: TuneState) -> Dict[str, object]:
        """The frontier artifact of the search's final (full-fidelity) rung."""
        record = self._final_record(state)
        capacity_bytes = parse_size(self.config.capacity)
        candidate_names = set(record["designs"])
        points: List[DesignPoint] = []
        for name, cell in sorted(record["results"].items()):
            spec = self._spec_of(state, name)
            point = DesignPoint(
                name=name,
                miss_ratio=ConfidenceInterval(
                    mean=cell["miss_ratio"],
                    half_width=cell["miss_half_width"]),
                speedup=ConfidenceInterval(
                    mean=cell["speedup"],
                    half_width=cell["speedup_half_width"]),
                sram_overhead_bytes=sram_overhead_bytes(
                    spec, capacity_bytes, self.config.num_cores),
                reference=name in REFERENCE_DESIGNS,
            )
            points.append(point)
        frontier_points = pareto_frontier(points)
        frontier_names = [p.name for p in frontier_points]
        baselines = [p for p in points if p.name in PAPER_BASELINES]
        designs_payload = []
        for point in points:
            spec = self._spec_of(state, point.name)
            designs_payload.append({
                "name": point.name,
                "kind": ("candidate" if point.name in candidate_names
                         else "baseline"),
                "reference": point.reference,
                "components": {role: getattr(spec, role).describe()
                               for role in ROLES},
                "miss_ratio": {"mean": point.miss_ratio.mean,
                               "half_width": point.miss_ratio.half_width},
                "speedup": {"mean": point.speedup.mean,
                            "half_width": point.speedup.half_width},
                "sram_overhead_bytes": point.sram_overhead_bytes,
                "on_frontier": point.name in frontier_names,
                "dominates_baselines": dominated_baselines(point, baselines),
            })
        winners = [name for name in frontier_names
                   if name in candidate_names]
        return {
            "version": 1,
            "search": state.token,
            "workload": self.config.workload,
            "capacity": self.config.capacity,
            "objectives": [list(pair) for pair in OBJECTIVES],
            "sweep_token": record["sweep_token"],
            "designs": designs_payload,
            "frontier": frontier_names,
            "winners": winners,
        }

    def verify_winner(self, state: TuneState,
                      name: Optional[str] = None) -> Dict[str, object]:
        """Re-run a winner *by its registered name* and diff the records.

        The serial in-memory executor must reproduce the archived final-rung
        record bit-identically (the PR6 queue-vs-serial guarantee); any
        mismatch means the registered spec does not round-trip its own
        measurement and fails loudly here.
        """
        from repro.sim.executor import run_sweep

        record = self._final_record(state)
        if name is None:
            if not state.winners:
                raise RuntimeError(f"search {state.token} has no winners yet")
            name = state.winners[0]
        final_rung = len(state.rungs) - 1
        spec = SweepSpec(
            designs=(name,),
            workloads=(self.config.workload,),
            capacities=(self.config.capacity,),
            config=self.config.experiment_config(),
            sampling=self.config.rung_sampling(final_rung),
        )
        with self._candidates_registered(state):
            rerun = run_sweep(spec, workers=1)[0]
        with self.service.archive() as archive:
            archived_set = archive.get(record["sweep_token"])
        if archived_set is None:
            raise RuntimeError(
                f"final rung sweep {record['sweep_token']} is not archived"
            )
        archived = next(res for res in archived_set if res.design == name)
        identical = asdict(rerun) == asdict(archived)
        return {
            "design": name,
            "identical": identical,
            "miss_ratio": rerun.miss_ratio,
            "archived_miss_ratio": archived.miss_ratio,
        }


# --------------------------------------------------------------------- #
# Module-level conveniences (the CLI's entry points)
# --------------------------------------------------------------------- #
def list_searches(queue_dir: Optional[PathLike] = None) -> List[TuneState]:
    """Every persisted search state under the queue's tune directory."""
    service = SweepService(queue_dir)
    tune_dir = service.queue_dir / TUNE_DIRNAME
    states = []
    for path in sorted(tune_dir.glob("*.json")):
        try:
            states.append(TuneState.load(path))
        except (ValueError, KeyError, json.JSONDecodeError):
            continue
    return states


def load_search(token: str, queue_dir: Optional[PathLike] = None,
                ) -> Tuple[TuneSearch, TuneState]:
    """Rehydrate a search (driver + state) from its persisted token."""
    service = SweepService(queue_dir)
    path = service.queue_dir / TUNE_DIRNAME / f"{token}.json"
    if not path.is_file():
        raise KeyError(f"no tune state for token {token!r} at {path}")
    state = TuneState.load(path)
    space = SearchSpace.from_config(state.space_config)
    search = TuneSearch(state.config, space=space, service=service)
    return search, state


__all__ = [
    "PAPER_BASELINES",
    "REFERENCE_DESIGNS",
    "TuneConfig",
    "TuneSearch",
    "TuneState",
    "deserialize_spec",
    "list_searches",
    "load_search",
    "search_token",
    "serialize_spec",
]
