"""Abstract interface of a die-stacked DRAM cache design.

Every design (Unison, Alloy, Footprint, Ideal, NoCache) consumes the same
request stream -- :class:`repro.trace.record.MemoryAccess` records, i.e. the
L2-miss stream -- and reports per-access outcomes through the same
:class:`DramCacheAccessResult`, so the experiment harness, the performance
model and the benchmark suite treat all designs uniformly.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.dramcache.stats import DramCacheStats
from repro.mem.main_memory import MainMemory
from repro.mem.stacked import StackedDram
from repro.stats.counters import StatGroup
from repro.trace.record import MemoryAccess

#: Version of the model layer's *simulated behaviour* (designs, components,
#: device timing).  Bump this whenever a change alters what any design
#: computes for a given trace -- the on-disk warm-state checkpoint store
#: (:mod:`repro.sampling.checkpoints`) folds it into every key, so stale
#: checkpoints written by older model code are invalidated instead of
#: silently reused.  The design/component *composition* is keyed separately
#: (the registry entry token); this constant covers implementation changes
#: the composition cannot see, playing the role ``GENERATOR_VERSION`` plays
#: for the trace store.
MODEL_BEHAVIOR_VERSION = 1


@dataclass(frozen=True)
class StateSnapshot:
    """A design's warm state, frozen at one point of a replay.

    Produced by :meth:`DramCacheModel.snapshot_state` and consumed by
    :meth:`DramCacheModel.restore_state`.  The payload maps dotted buffer
    names (``"tags.page"``, ``"memory.controller.open_row"``) to plain
    copies of every warm-state buffer -- tag arrays, replacement state,
    predictor tables, statistics, DRAM timing state -- as tuples, dicts and
    scalars.  It holds no model objects, so one warm checkpoint can seed
    any number of measurement windows (:mod:`repro.sampling`) and is
    written to disk as plain data.
    """

    design_name: str
    state: Dict[str, object]

    def differing_buffers(self, other: "StateSnapshot") -> List[str]:
        """Names of the buffers whose contents differ from ``other``'s.

        Buffers compare by ``repr``, exact for this plain data (it tells
        ``True`` from ``1`` and sees dict order); a one-sided buffer differs.
        """
        names = sorted(set(self.state) | set(other.state))
        return [name for name in names
                if repr(self.state.get(name, ...))
                != repr(other.state.get(name, ...))]


@functools.lru_cache(maxsize=None)
def _state_attrs(cls) -> "tuple[str, ...]":
    """Every ``_STATE_ATTRS`` declaration along ``cls``'s hierarchy."""
    return tuple(dict.fromkeys(name for klass in reversed(cls.__mro__)
                               for name in vars(klass).get("_STATE_ATTRS", ())))


def state_leaves(obj, prefix: str = "") -> Iterator[Tuple[str, object, str]]:
    """``(name, owner, attribute)`` of every warm-state buffer under ``obj``.

    An object takes part by declaring ``_STATE_ATTRS``, the attribute names
    of its warm state.  A value that itself declares ``_STATE_ATTRS`` is
    walked (its buffers are named ``"<attr>.<buffer>"``); any other value is
    a buffer.  Lists (of ints, or of int lists) and dicts are restored in
    place, so the batch kernels and DRAM timing closures that alias them
    stay valid; scalars are restored by assignment.
    """
    for name in _state_attrs(type(obj)):
        value = getattr(obj, name)
        if hasattr(type(value), "_STATE_ATTRS"):
            yield from state_leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name, obj, name


def _capture(value):
    """A plain, independent copy of one buffer's contents."""
    if type(value) is dict:
        return dict(value)
    if type(value) is not list:
        return value
    if value and type(value[0]) is list:
        return tuple(map(tuple, value))
    return tuple(value)


@dataclass(frozen=True)
class DramCacheAccessResult:
    """Outcome of one DRAM-cache access."""

    hit: bool
    #: Latency of the access in CPU cycles, measured at the DRAM cache
    #: controller (excludes the L1/L2/interconnect portion, which the
    #: performance model adds uniformly for all designs).
    latency_cycles: int
    #: 64-byte blocks fetched from off-chip memory as a consequence of this
    #: access (demand block + any speculatively fetched footprint blocks).
    offchip_blocks_fetched: int = 0
    #: Dirty blocks written back off-chip as a consequence of this access.
    offchip_blocks_written: int = 0


class DramCacheModel(abc.ABC):
    """Base class for all DRAM cache designs.

    Subclasses implement :meth:`_service_request`; the public :meth:`access`
    wrapper advances the model's clock in a *closed-loop* fashion -- the next
    request is issued one inter-arrival gap after the previous one completes.
    This keeps the DRAM timing model in its unloaded-latency regime (the
    regime the paper's latency arguments are about) instead of accumulating
    unbounded queueing backlog when a trace is replayed back-to-back.
    """

    #: Short machine-readable design name, overridden by subclasses.
    design_name: str = "base"

    #: Warm state captured by :meth:`snapshot_state` (see
    #: :func:`state_leaves`).  Subclasses declare *their own additions*
    #: (the composed engine's components); declarations accumulate across
    #: the class hierarchy, so this base list of the universally-shared
    #: state is inherited by every design.
    _STATE_ATTRS: "tuple[str, ...]" = ("_now", "cache_stats", "memory",
                                       "stacked")

    def __init__(self, capacity_bytes: int, stacked: StackedDram = None,
                 memory: MainMemory = None,
                 interarrival_cycles: int = 6) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.stacked = stacked if stacked is not None else StackedDram()
        self.memory = memory if memory is not None else MainMemory()
        self.cache_stats = DramCacheStats(name=self.design_name)
        self._interarrival = max(1, interarrival_cycles)
        self._now = 0

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _service_request(self, request: MemoryAccess) -> DramCacheAccessResult:
        """Service one request at time ``self._now`` and return its outcome."""

    def access(self, request: MemoryAccess) -> DramCacheAccessResult:
        """Service one request, advancing the closed-loop clock."""
        self._now += self._interarrival
        result = self._service_request(request)
        self._now += max(0, result.latency_cycles)
        return result

    def run(self, requests: Iterable[MemoryAccess]) -> DramCacheStats:
        """Service a whole request stream and return the statistics record.

        Dispatches to the fused batch kernels of :mod:`repro.engine` when
        this design's composition is covered and the batch engine is
        enabled (``REPRO_BATCH`` / ``--batch-warming``), and to per-request
        :meth:`access` calls otherwise; state and statistics come out
        bit-identical either way.  ``requests`` may also be a numpy record
        array.
        """
        from repro.engine import replay_design

        replay_design(self, requests)
        return self.cache_stats

    def warm_up(self, requests: Iterable[MemoryAccess]) -> None:
        """Service requests one by one (the scalar engine), then discard the
        statistics gathered while doing so."""
        for request in requests:
            self.access(request)
        self.reset_stats()

    def warm_up_array(self, accesses) -> str:
        """Warm with a record array (or records) on the engine :meth:`run`
        uses: a replay, then :meth:`reset_stats`.

        The post-warming state is bit-identical to :meth:`warm_up`'s; returns
        ``"batch"`` or ``"scalar"`` naming the engine that ran.
        """
        from repro.engine import warm_design

        return warm_design(self, accesses)

    def reset_stats(self) -> None:
        """Reset statistics without touching cache contents (warm-up boundary)."""
        self.cache_stats.reset()

    # ------------------------------------------------------------------ #
    # Snapshot/restore of warm state (checkpointed sampling)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> StateSnapshot:
        """Freeze the design's warm state (contents, predictors, timing).

        Copies every buffer :func:`state_leaves` names into plain tuples,
        dicts and scalars.  The snapshot is independent of the live model:
        continuing to replay accesses never disturbs it, and it can seed any
        number of :meth:`restore_state` calls.
        """
        return StateSnapshot(
            design_name=self.design_name,
            state={name: _capture(getattr(owner, attr))
                   for name, owner, attr in state_leaves(self)},
        )

    def restore_state(self, snapshot: StateSnapshot) -> None:
        """Rewind the design to a previously captured snapshot.

        Every buffer name, type and length is checked before anything is
        written, so a snapshot that does not fit raises ``ValueError`` and
        leaves the design untouched.  Buffers are then overwritten in
        place.
        """
        if snapshot.design_name != self.design_name:
            raise ValueError(
                f"snapshot of design {snapshot.design_name!r} cannot "
                f"restore a {self.design_name!r} model"
            )
        leaves = list(state_leaves(self))
        state = snapshot.state
        if sorted(state) != sorted(name for name, *_ in leaves):
            raise ValueError(
                f"snapshot state keys {sorted(state)} do not match this "
                f"design's state buffers {sorted(n for n, *_ in leaves)}"
            )
        # Slice assignment silently resizes a list, so every buffer is
        # checked by type and length against the live one before the first
        # one is written.
        lives = [getattr(owner, attr) for _, owner, attr in leaves]
        for (name, _, _), live in zip(leaves, lives):
            saved = state[name]
            sized = type(live) is list
            if (type(saved) is not (tuple if sized else type(live))
                    or sized and len(saved) != len(live)):
                raise ValueError(
                    f"snapshot buffer {name!r} ({type(saved).__name__}) does "
                    f"not fit this design's {type(live).__name__}"
                    + (f" of {len(live)}" if sized else "")
                )
        for (name, owner, attr), live in zip(leaves, lives):
            saved = state[name]
            if type(live) is dict:
                live.clear()
                live.update(saved)
            elif type(live) is not list:
                setattr(owner, attr, saved)
            elif live and type(live[0]) is list:
                for row, saved_row in zip(live, saved):
                    row[:] = saved_row
            else:
                live[:] = saved

    # ------------------------------------------------------------------ #
    @property
    def miss_ratio(self) -> float:
        """Convenience accessor for the measured miss ratio."""
        return self.cache_stats.miss_ratio

    def extra_metrics(self) -> Dict[str, float]:
        """Design-specific metrics beyond the uniform cache statistics.

        Keys that match an :class:`repro.sim.experiment.ExperimentResult`
        metric field (e.g. ``footprint_accuracy``) populate that field; any
        other key lands in ``ExperimentResult.extra``.  The base design has
        none; predictor-equipped designs override this.
        """
        return {}

    def stats(self) -> StatGroup:
        """Design statistics plus the underlying device statistics."""
        group = StatGroup(self.design_name)
        group.merge_child(self.cache_stats.stats())
        group.merge_child(self.memory.stats())
        group.merge_child(self.stacked.stats())
        return group

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Human-readable one-line description."""
        from repro.utils.units import format_size

        return f"{self.design_name}({format_size(self.capacity_bytes)})"
