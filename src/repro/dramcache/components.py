"""Policy components of a DRAM cache design.

The paper's contribution is explicitly compositional: Unison Cache is built
from parts its baselines already contain (Loh-Hill's tags-in-DRAM, Alloy's
single-access hit path, Footprint Cache's footprint prediction at page
granularity).  This module factors the monolithic ``_service_request`` bodies
of the design classes into four small policy roles, each with a handful of
interchangeable implementations:

* :class:`TagOrganization` -- owns the array layout, block/page placement,
  device-access latencies, and the allocation/eviction mechanics.  Variants:
  in-DRAM set-associative page tags (Unison), SRAM set-associative page tags
  (Footprint Cache), direct-mapped tag-and-data blocks (Alloy), set-per-row
  blocks behind an SRAM MissMap (Loh-Hill), plus the always-hit and no-cache
  reference organizations.
* :class:`HitPredictor` -- modulates the lookup: nothing, a page-granular way
  predictor (Unison), or a MAP-I style per-core miss predictor (Alloy).
* :class:`FetchPolicy` -- decides which blocks an allocation brings on chip:
  the demand block only, the whole page, or a predicted footprint with
  singleton bypass and eviction-time learning.
* :class:`WritebackPolicy` -- how dirty data leaves the cache.
* :class:`ReplacementComponent` -- which victim a set-associative
  organization evicts: LRU (the paper's policy, the default), deterministic
  random, or 2-bit SRRIP.  The organization binds the component to its
  geometry, and the component keeps the per-set replacement state.

Components are deliberately *device-free*: they hold only their own mutable
state (tag arrays, predictor tables) and receive the engine -- a
:class:`repro.dramcache.composed.ComposedDramCache` -- as an argument on
every call.  That state is flat: int/bool lists indexed by frame, dicts of
ints and tuples, and scalars, declared per class in ``_STATE_ATTRS``.  The
scalar service path, the batch kernels (:mod:`repro.engine`) and
the design snapshots (:func:`repro.dramcache.base.state_leaves`) all work on
those same buffers.

Each role has a registry (:data:`TAG_ORGANIZATIONS`, :data:`HIT_PREDICTORS`,
:data:`FETCH_POLICIES`, :data:`WRITEBACK_POLICIES`,
:data:`REPLACEMENT_POLICIES`) mapping a *kind* name to a factory, so a
:class:`repro.dramcache.spec.DesignSpec` can name its parts declaratively --
and downstream code can register new variants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, TYPE_CHECKING

from repro.config.cache_configs import (
    AlloyCacheConfig,
    FOOTPRINT_TABLE_ENTRIES,
    FootprintCacheConfig,
    SINGLETON_TABLE_ENTRIES,
    UnisonCacheConfig,
    footprint_tag_array_for_capacity,
    way_predictor_index_bits_for_capacity,
)
from repro.core.row_layout import UnisonRowLayout
from repro.predictors.footprint import FootprintPredictor
from repro.predictors.miss import MissPredictor
from repro.predictors.singleton import SingletonTable
from repro.predictors.way import WayPredictor
from repro.stats.counters import StatGroup
from repro.trace.record import BLOCK_SIZE, MemoryAccess
from repro.utils.residue import ResidueMapper

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dramcache.composed import ComposedDramCache
    from repro.sim.registry import DesignBuildContext


# --------------------------------------------------------------------- #
# Engine <-> component value objects
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Lookup:
    """Where a request landed in the tag organization (no devices touched)."""

    #: Page number in the organization's page geometry (== block address for
    #: block-granular organizations with one block per page).
    page: int
    set_index: int
    #: Block offset within the page (0 for block-granular organizations).
    offset: int
    #: Way the page/block resides in, or -1 when absent.
    way: int
    #: The requested block's data is present (a hit).
    block_hit: bool
    #: The enclosing frame is resident (page organizations may have the page
    #: without the block -- the footprint-underprediction path).
    page_hit: bool


@dataclass(frozen=True)
class HitPrediction:
    """What the hit predictor contributed to this access."""

    #: Cycles the predictor lookup adds to every access it filters.
    latency_cycles: int = 0
    #: The access is predicted to miss (MAP-I style): the off-chip request is
    #: issued in parallel with -- or instead of -- the cache lookup.
    predicted_miss: bool = False
    #: Predicted way, or ``None`` when no way prediction is in play.
    way: Optional[int] = None
    #: Penalty paid when ``way`` turns out wrong.
    mispredict_penalty: int = 0


#: A no-op prediction shared by every component that has nothing to say.
NO_PREDICTION = HitPrediction()


@dataclass(frozen=True)
class FetchDecision:
    """What the fetch policy wants brought on chip for a trigger miss."""

    #: Bit mask of the page's blocks to fetch (always includes the trigger
    #: block; unused on a bypass).
    footprint: int = 0
    #: Forward the block without allocating (singleton bypass).
    bypass: bool = False
    #: The footprint came from a trained history entry.
    from_history: bool = False
    #: On a bypass: remember the page in the singleton table.
    note_singleton: bool = False


@dataclass(frozen=True)
class AllocationOutcome:
    """What a trigger-miss allocation cost."""

    offchip_latency: int
    blocks_fetched: int
    blocks_written: int


def _offsets(mask: int) -> List[int]:
    """Set bit positions of ``mask``, ascending (block offsets of a page)."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# --------------------------------------------------------------------- #
# Component registries
# --------------------------------------------------------------------- #
class ComponentRegistry:
    """Kind -> factory registry for one policy role."""

    def __init__(self, role: str) -> None:
        self.role = role
        self._factories: Dict[str, Callable] = {}

    def register(self, kind: str, factory: Callable, *,
                 replace: bool = False) -> Callable:
        key = kind.lower()
        if not replace and key in self._factories:
            raise ValueError(
                f"{self.role} component {kind!r} is already registered"
            )
        self._factories[key] = factory
        return factory

    def resolve(self, kind: str) -> Callable:
        factory = self._factories.get(kind.lower())
        if factory is None:
            raise ValueError(
                f"unknown {self.role} component {kind!r}; "
                f"options: {sorted(self._factories)}"
            )
        return factory

    def kinds(self) -> "tuple[str, ...]":
        return tuple(self._factories)

    def __contains__(self, kind: object) -> bool:
        return isinstance(kind, str) and kind.lower() in self._factories


#: Tag-organization factories: ``factory(context, **params) -> TagOrganization``.
TAG_ORGANIZATIONS = ComponentRegistry("tag organization")
#: Hit-predictor factories: ``factory(context, tags, **params) -> HitPredictor``.
HIT_PREDICTORS = ComponentRegistry("hit predictor")
#: Fetch-policy factories: ``factory(context, tags, **params) -> FetchPolicy``.
FETCH_POLICIES = ComponentRegistry("fetch policy")
#: Writeback-policy factories: ``factory(context, tags, **params) -> WritebackPolicy``.
WRITEBACK_POLICIES = ComponentRegistry("writeback policy")
#: Replacement-policy factories: ``factory(context, tags, **params) -> ReplacementComponent``.
REPLACEMENT_POLICIES = ComponentRegistry("replacement policy")


class CachePolicyComponent:
    """Base for all policy components: hooks the engine calls uniformly.

    Components never store a reference to the engine or its device models;
    every method receives the engine explicitly.  A component's warm state
    is the buffers its ``_STATE_ATTRS`` names (none by default), which the
    :class:`~repro.dramcache.base.StateSnapshot` protocol copies and
    restores in place.
    """

    #: Kind name the component registers under (reports/``repro designs``).
    kind: str = ""

    _STATE_ATTRS: "tuple[str, ...]" = ()

    def reset_stats(self) -> None:
        """Forget measurement counters; learned state persists."""

    def extra_metrics(self, engine: "ComposedDramCache") -> Dict[str, float]:
        """Metrics folded into :meth:`DramCacheModel.extra_metrics`."""
        return {}

    def stats_children(self) -> List[StatGroup]:
        """Stat groups merged into the design's :meth:`stats` output."""
        return []

    def contribute_stats(self, group: StatGroup) -> None:
        """Scalars set directly on the design's stat group."""


# --------------------------------------------------------------------- #
# Writeback policies
# --------------------------------------------------------------------- #
class WritebackPolicy(CachePolicyComponent):
    """How dirty blocks leave the cache at eviction time."""

    def writeback_block(self, engine: "ComposedDramCache", block: int) -> int:
        raise NotImplementedError

    def writeback_blocks(self, engine: "ComposedDramCache",
                         blocks: List[int]) -> int:
        raise NotImplementedError


class WritebackDirtyPolicy(WritebackPolicy):
    """Write dirty blocks off chip when their frame is evicted (default)."""

    kind = "dirty"

    def writeback_block(self, engine: "ComposedDramCache", block: int) -> int:
        engine.memory.write_block(block, engine._now)
        engine.cache_stats.offchip_writeback_blocks += 1
        return 1

    def writeback_blocks(self, engine: "ComposedDramCache",
                         blocks: List[int]) -> int:
        if not blocks:
            return 0
        engine.memory.write_blocks(blocks, engine._now)
        engine.cache_stats.offchip_writeback_blocks += len(blocks)
        return len(blocks)


class DropDirtyPolicy(WritebackPolicy):
    """Discard dirty data on eviction (reference/ablation variant)."""

    kind = "none"

    def writeback_block(self, engine: "ComposedDramCache", block: int) -> int:
        return 0

    def writeback_blocks(self, engine: "ComposedDramCache",
                         blocks: List[int]) -> int:
        return 0


def _parameterless(role: str, kind: str, component_class):
    """A factory for components that take no parameters.

    Rejects stray params instead of swallowing them, so a typo'd spec
    parameter fails at build time on every component kind, not only the
    keyword-signature factories.
    """

    def factory(context, tags, **params):
        if params:
            raise ValueError(
                f"{role} component {kind!r} takes no parameters; "
                f"got {sorted(params)}"
            )
        return component_class()

    return factory


WRITEBACK_POLICIES.register(
    "dirty", _parameterless("writeback policy", "dirty",
                            WritebackDirtyPolicy))
WRITEBACK_POLICIES.register(
    "none", _parameterless("writeback policy", "none", DropDirtyPolicy))


# --------------------------------------------------------------------- #
# Replacement policies (the fifth component role)
# --------------------------------------------------------------------- #
class ReplacementComponent(CachePolicyComponent):
    """How a set-associative organization chooses eviction victims.

    The organization binds the component to its geometry once at build
    time (:meth:`bind`, through :meth:`TagOrganization.apply_replacement`).
    The component then keeps the replacement state of every set, indexed
    like the organization's frames (``set * associativity + way``), and is
    asked for a victim only when the set has no invalid way.
    """

    def bind(self, num_sets: int, associativity: int) -> None:
        self.associativity = associativity

    def on_access(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    def on_fill(self, set_index: int, way: int) -> None:
        """Record a fill into ``way`` of ``set_index``."""
        self.on_access(set_index, way)

    def victim(self, set_index: int) -> int:
        """The way of a full set to evict."""
        raise NotImplementedError


class LruReplacement(ReplacementComponent):
    """Least-recently-used (the paper's page replacement; the default).

    ``clock[set]`` counts the set's touches and ``recency[frame]`` holds the
    clock of the frame's last touch; the victim is the first way with the
    oldest touch.
    """

    kind = "lru"
    _STATE_ATTRS = ("clock", "recency")

    def __init__(self) -> None:
        self.clock: List[int] = []
        self.recency: List[int] = []

    def bind(self, num_sets: int, associativity: int) -> None:
        super().bind(num_sets, associativity)
        self.clock = [0] * num_sets
        self.recency = [0] * (num_sets * associativity)

    def on_access(self, set_index: int, way: int) -> None:
        clock = self.clock[set_index] + 1
        self.clock[set_index] = clock
        self.recency[set_index * self.associativity + way] = clock

    def victim(self, set_index: int) -> int:
        base = set_index * self.associativity
        recency = self.recency[base:base + self.associativity]
        return recency.index(min(recency))


class RandomReplacement(ReplacementComponent):
    """Random victims from a deterministic per-set generator.

    Set ``s`` draws from ``random.Random(seed * 1000003 + s)``, so results
    are reproducible and independent of the order sets are used in.  The
    warm state is ``draws``, the number of victims each set has drawn: a
    generator is a pure function of its seed and its draw count, so one is
    built on a set's first victim and rebuilt (seeded, then ``draws[s]``
    draws replayed) whenever it no longer matches the set's count -- after
    a restore, or in a design that was never replayed.
    """

    kind = "random"
    _STATE_ATTRS = ("draws",)

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.draws: List[int] = []
        #: Per set with a live generator: (generator, victims it has drawn).
        self._live: Dict[int, "tuple[random.Random, int]"] = {}

    def bind(self, num_sets: int, associativity: int) -> None:
        super().bind(num_sets, associativity)
        self.draws = [0] * num_sets
        self._live = {}

    def victim(self, set_index: int) -> int:
        drawn = self.draws[set_index]
        rng, live_drawn = self._live.get(set_index, (None, -1))
        if live_drawn != drawn:
            rng = random.Random(self.seed * 1000003 + set_index)
            for _ in range(drawn):
                rng.randrange(self.associativity)
        self._live[set_index] = rng, drawn + 1
        self.draws[set_index] = drawn + 1
        return rng.randrange(self.associativity)


class RripReplacement(ReplacementComponent):
    """Static RRIP (2-bit SRRIP) victims.

    Fills insert at a *long* re-reference interval (RRPV = max - 1), hits
    promote to *near-immediate* (RRPV = 0), and the victim scan walks the
    ways looking for RRPV = max, aging every way when none qualifies --
    the deterministic SRRIP-HP variant of Jaleel et al. (ISCA 2010).
    """

    kind = "rrip"
    _STATE_ATTRS = ("rrpv",)

    MAX_RRPV = 3  # 2-bit counters

    def __init__(self) -> None:
        self.rrpv: List[int] = []

    def bind(self, num_sets: int, associativity: int) -> None:
        super().bind(num_sets, associativity)
        self.rrpv = [self.MAX_RRPV] * (num_sets * associativity)

    def on_access(self, set_index: int, way: int) -> None:
        self.rrpv[set_index * self.associativity + way] = 0

    def on_fill(self, set_index: int, way: int) -> None:
        self.rrpv[set_index * self.associativity + way] = self.MAX_RRPV - 1

    def victim(self, set_index: int) -> int:
        base = set_index * self.associativity
        rrpv = self.rrpv[base:base + self.associativity]
        oldest = max(rrpv)
        if oldest < self.MAX_RRPV:
            # Age every way until the oldest reaches MAX_RRPV.
            self.rrpv[base:base + self.associativity] = [
                value + self.MAX_RRPV - oldest for value in rrpv]
        return rrpv.index(oldest)


def _build_random_replacement(context, tags, seed: int = 0,
                              ) -> RandomReplacement:
    return RandomReplacement(seed=seed)


REPLACEMENT_POLICIES.register(
    "lru", _parameterless("replacement policy", "lru", LruReplacement))
REPLACEMENT_POLICIES.register("random", _build_random_replacement)
REPLACEMENT_POLICIES.register(
    "rrip", _parameterless("replacement policy", "rrip", RripReplacement))


# --------------------------------------------------------------------- #
# Hit predictors
# --------------------------------------------------------------------- #
class HitPredictor(CachePolicyComponent):
    """Per-access prediction that modulates the lookup path."""

    def observe(self, engine: "ComposedDramCache", request: MemoryAccess,
                lookup: Lookup) -> HitPrediction:
        raise NotImplementedError


class NoHitPrediction(HitPredictor):
    """No prediction: the organization's natural lookup path is used."""

    kind = "none"

    def observe(self, engine: "ComposedDramCache", request: MemoryAccess,
                lookup: Lookup) -> HitPrediction:
        return NO_PREDICTION


class OracleWayPrediction(NoHitPrediction):
    """Way prediction degenerated to perfect knowledge.

    A direct-mapped organization (or an ablation that removes the
    predictor) knows the way without predicting; behaviourally identical
    to :class:`NoHitPrediction`, but it keeps reporting the
    ``way_prediction_accuracy`` metric as 1.0 -- matching what the legacy
    designs always published for these configurations.
    """

    kind = "oracle-way"

    def extra_metrics(self, engine: "ComposedDramCache") -> Dict[str, float]:
        return {"way_prediction_accuracy": 1.0}


class DisabledMissPrediction(NoHitPrediction):
    """MAP-I prediction switched off, metrics still published as zeros."""

    kind = "no-map-i"

    def extra_metrics(self, engine: "ComposedDramCache") -> Dict[str, float]:
        return {
            "miss_prediction_accuracy": 0.0,
            "miss_predictor_overfetch": 0.0,
        }


class WayPredictionPolicy(HitPredictor):
    """Unison's page-granular way predictor (Section III-A.6).

    Records every access to a resident frame (the controller reads the
    predicted way's block *in unison* with the tags) and reports the way it
    would have read, plus the penalty a misprediction costs.
    """

    kind = "way"
    _STATE_ATTRS = ("predictor",)

    def __init__(self, predictor: WayPredictor,
                 mispredict_penalty_cycles: int = 12) -> None:
        self.predictor = predictor
        self.mispredict_penalty_cycles = mispredict_penalty_cycles

    def observe(self, engine: "ComposedDramCache", request: MemoryAccess,
                lookup: Lookup) -> HitPrediction:
        if not lookup.page_hit:
            return NO_PREDICTION
        correct = self.predictor.record(lookup.page, lookup.way)
        way = (lookup.way if correct
               else (lookup.way + 1) % self.predictor.associativity)
        return HitPrediction(
            way=way, mispredict_penalty=self.mispredict_penalty_cycles
        )

    def reset_stats(self) -> None:
        self.predictor.reset_stats()

    def extra_metrics(self, engine: "ComposedDramCache") -> Dict[str, float]:
        return {"way_prediction_accuracy": self.predictor.accuracy.value}

    def stats_children(self) -> List[StatGroup]:
        return [self.predictor.stats()]


class MissPredictionPolicy(HitPredictor):
    """Alloy's MAP-I style per-core miss predictor (Section II-A).

    Every access pays the predictor's (small) latency; predicted misses skip
    the in-cache lookup and go off chip immediately, at the price of wasted
    off-chip fetches when the prediction is wrong.
    """

    kind = "map-i"
    _STATE_ATTRS = ("predictor",)

    def __init__(self, predictor: MissPredictor,
                 latency_cycles: int = 1) -> None:
        self.predictor = predictor
        self.latency_cycles = latency_cycles

    def observe(self, engine: "ComposedDramCache", request: MemoryAccess,
                lookup: Lookup) -> HitPrediction:
        predicted_miss = self.predictor.record(
            request.core_id, request.pc, was_miss=not lookup.block_hit
        )
        return HitPrediction(
            latency_cycles=self.latency_cycles, predicted_miss=predicted_miss
        )

    def reset_stats(self) -> None:
        self.predictor.reset_stats()

    def extra_metrics(self, engine: "ComposedDramCache") -> Dict[str, float]:
        hits = engine.cache_stats.hits
        return {
            "miss_prediction_accuracy": self.predictor.miss_identification.value,
            "miss_predictor_overfetch": (
                self.predictor.false_misses / hits if hits else 0.0
            ),
        }

    def stats_children(self) -> List[StatGroup]:
        return [self.predictor.stats()]


def _build_way_predictor(context: "DesignBuildContext", tags,
                         index_bits: Optional[int] = None,
                         mispredict_penalty_cycles: Optional[int] = None,
                         ) -> HitPredictor:
    associativity = getattr(tags, "associativity", 1)
    if associativity <= 1:
        # A direct-mapped organization knows the way; prediction degenerates
        # to the plain lookup path while still reporting perfect accuracy.
        return OracleWayPrediction()
    if index_bits is None:
        # The predictor is sized for the *paper* capacity (Section IV).
        index_bits = way_predictor_index_bits_for_capacity(
            context.paper_capacity_bytes)
    if mispredict_penalty_cycles is None:
        mispredict_penalty_cycles = getattr(
            tags, "way_mispredict_penalty_cycles", 12)
    return WayPredictionPolicy(
        WayPredictor(index_bits=index_bits, associativity=associativity),
        mispredict_penalty_cycles=mispredict_penalty_cycles,
    )


def _build_miss_predictor(context: "DesignBuildContext", tags,
                          entries_per_core: int = 256,
                          latency_cycles: int = 1) -> MissPredictionPolicy:
    return MissPredictionPolicy(
        MissPredictor(num_cores=context.num_cores,
                      entries_per_core=entries_per_core),
        latency_cycles=latency_cycles,
    )


HIT_PREDICTORS.register(
    "none", _parameterless("hit predictor", "none", NoHitPrediction))
HIT_PREDICTORS.register("way", _build_way_predictor)
HIT_PREDICTORS.register("map-i", _build_miss_predictor)


# --------------------------------------------------------------------- #
# Fetch policies
# --------------------------------------------------------------------- #
class FetchPolicy(CachePolicyComponent):
    """Which blocks a trigger-miss allocation brings on chip."""

    def plan(self, engine: "ComposedDramCache", request: MemoryAccess,
             lookup: Lookup) -> FetchDecision:
        raise NotImplementedError

    def on_bypass(self, engine: "ComposedDramCache", request: MemoryAccess,
                  lookup: Lookup, decision: FetchDecision) -> None:
        """Bookkeeping after the engine serviced a bypassed miss."""

    def learn_eviction(self, trigger_pc: int, trigger_offset: int,
                       demanded: int, predicted: int,
                       from_history: bool) -> None:
        """Eviction-time training with the frame's observed footprint.

        ``demanded`` and ``predicted`` are bit masks over the page's blocks.
        """


class DemandBlockFetch(FetchPolicy):
    """Fetch only the block that missed (Alloy / Loh-Hill behaviour)."""

    kind = "demand"

    def plan(self, engine: "ComposedDramCache", request: MemoryAccess,
             lookup: Lookup) -> FetchDecision:
        return FetchDecision(footprint=1 << lookup.offset)


class FullPageFetch(FetchPolicy):
    """Fetch the whole page on a trigger miss (classic page-based cache)."""

    kind = "full-page"

    def plan(self, engine: "ComposedDramCache", request: MemoryAccess,
             lookup: Lookup) -> FetchDecision:
        return FetchDecision(
            footprint=(1 << engine.tags.blocks_per_page) - 1)


class FootprintFetch(FetchPolicy):
    """Footprint-predicted fetching with singleton bypass (Section III-A).

    Owns the footprint history table and the singleton table; learns at
    eviction time from the frame's demanded-block vector (the tag
    organization calls :meth:`learn_eviction` while evicting).
    """

    kind = "footprint"
    _STATE_ATTRS = ("predictor", "singleton_table")

    def __init__(self, predictor: FootprintPredictor,
                 singleton_table: SingletonTable) -> None:
        self.predictor = predictor
        self.singleton_table = singleton_table

    def plan_bits(self, page: int, pc: int,
                  offset: int) -> "tuple[int, bool, bool, bool]":
        """The :class:`FetchDecision` fields of a trigger, as a tuple.

        The one planning routine of the scalar path (:meth:`plan`) and the
        batch kernels.
        """
        # A prior singleton bypass of this page may be contradicted by this
        # access; the singleton table corrects the history table if so.
        correction = self.singleton_table.observe(page, offset)
        if correction is not None:
            self.predictor.train(*correction)
        footprint, from_history = self.predictor.predict_bits(pc, offset)
        if from_history and footprint == 1 << offset:
            return footprint, True, True, correction is None
        return footprint, False, from_history, False

    def plan(self, engine: "ComposedDramCache", request: MemoryAccess,
             lookup: Lookup) -> FetchDecision:
        return FetchDecision(*self.plan_bits(lookup.page, request.pc,
                                             lookup.offset))

    def on_bypass(self, engine: "ComposedDramCache", request: MemoryAccess,
                  lookup: Lookup, decision: FetchDecision) -> None:
        if decision.note_singleton:
            self.singleton_table.insert(lookup.page, request.pc, lookup.offset)

    def learn_eviction(self, trigger_pc: int, trigger_offset: int,
                       demanded: int, predicted: int,
                       from_history: bool) -> None:
        actual = demanded or 1 << trigger_offset
        self.predictor.train(trigger_pc, trigger_offset, actual)
        self.predictor.account(predicted, actual, from_history=from_history)

    def reset_stats(self) -> None:
        self.predictor.reset_stats()

    def extra_metrics(self, engine: "ComposedDramCache") -> Dict[str, float]:
        return {
            "footprint_accuracy": self.predictor.accuracy_ratio,
            "footprint_overfetch": self.predictor.overfetch_ratio,
        }

    def stats_children(self) -> List[StatGroup]:
        return [self.predictor.stats(), self.singleton_table.stats()]


def _build_footprint_fetch(context, tags,
                           table_entries: int = FOOTPRINT_TABLE_ENTRIES,
                           singleton_entries: int = SINGLETON_TABLE_ENTRIES,
                           ) -> FootprintFetch:
    blocks = tags.blocks_per_page
    return FootprintFetch(
        FootprintPredictor(blocks_per_page=blocks, num_entries=table_entries),
        SingletonTable(num_entries=singleton_entries, blocks_per_page=blocks),
    )


FETCH_POLICIES.register(
    "demand", _parameterless("fetch policy", "demand", DemandBlockFetch))
FETCH_POLICIES.register(
    "full-page", _parameterless("fetch policy", "full-page", FullPageFetch))
FETCH_POLICIES.register("footprint", _build_footprint_fetch)


# --------------------------------------------------------------------- #
# Tag organizations
# --------------------------------------------------------------------- #
class TagOrganization(CachePolicyComponent):
    """Array layout, placement, lookup/allocation mechanics, and latencies."""

    #: Block granularity of the fetch-policy page view (1 == block-based).
    blocks_per_page: int = 1
    #: Ways per set (1 == direct-mapped).
    associativity: int = 1
    capacity_bytes: int = 0
    #: Sets choose eviction victims (``num_sets`` sets of ``associativity``
    #: ways, state indexed ``set * associativity + way``).
    has_victim_choice = False

    # -- replacement --------------------------------------------------- #
    def apply_replacement(self, replacement: ReplacementComponent) -> None:
        """Bind the replacement component to this organization's sets.

        Organizations without a victim choice (direct-mapped, always-hit,
        no-cache) accept only the default ``lru`` component: any other kind
        would silently change nothing, so it fails loudly at build time
        instead.
        """
        if self.has_victim_choice:
            replacement.bind(self.num_sets, self.associativity)
            self.replacement = replacement
        elif replacement.kind != "lru":
            raise ValueError(
                f"tag organization {self.kind!r} has no per-set replacement "
                f"choice; only the default 'lru' replacement component is "
                f"valid (got {replacement.kind!r})"
            )

    def _way_holding(self, column: list, set_index: int, value) -> int:
        """First way of ``set_index`` whose ``column`` entry is ``value``."""
        base = set_index * self.associativity
        ways = column[base:base + self.associativity]
        return ways.index(value) if value in ways else -1

    def _victim_way(self, column: list, set_index: int, free) -> int:
        """The first free way of a set (``column`` entry ``free``), else the
        replacement component's victim."""
        way = self._way_holding(column, set_index, free)
        return way if way >= 0 else self.replacement.victim(set_index)

    # -- placement ----------------------------------------------------- #
    def probe(self, request: MemoryAccess) -> Lookup:
        raise NotImplementedError

    # -- hit path ------------------------------------------------------ #
    def touch(self, engine: "ComposedDramCache", request: MemoryAccess,
              lookup: Lookup) -> None:
        """Bookkeeping on any access to a resident frame."""

    def block_hit_latency(self, engine: "ComposedDramCache",
                          request: MemoryAccess, lookup: Lookup,
                          pred: HitPrediction) -> int:
        raise NotImplementedError

    def on_hit_write(self, engine: "ComposedDramCache",
                     request: MemoryAccess, lookup: Lookup) -> None:
        """Device write + dirty bookkeeping for a write hit."""

    # -- miss path ----------------------------------------------------- #
    def miss_lookup_latency(self, engine: "ComposedDramCache",
                            request: MemoryAccess, lookup: Lookup,
                            pred: HitPrediction) -> int:
        """Cycles spent discovering the miss (may read the in-DRAM tags)."""
        return 0

    def fill_block(self, engine: "ComposedDramCache", request: MemoryAccess,
                   lookup: Lookup) -> None:
        """Install the demand block into an already-resident frame."""
        raise NotImplementedError

    def allocate(self, engine: "ComposedDramCache", request: MemoryAccess,
                 lookup: Lookup, decision: FetchDecision) -> AllocationOutcome:
        """Evict a victim, fetch the decided footprint, install the frame."""
        raise NotImplementedError


class FrameAddresses(NamedTuple):
    """Stacked-DRAM byte addresses of a page organization's frames.

    Geometry, not warm state: :meth:`_SetAssocPageTags.frame_addresses`
    builds them once per device row size for the batch kernels, and
    snapshots never carry them.  The last three lists are empty for SRAM
    tags.
    """

    #: Per frame: its first data block.
    data: List[int]
    #: Per frame: its presence metadata (in-DRAM tags).
    presence: List[int]
    #: Per frame: its (PC, offset) metadata, read on eviction.
    metadata: List[int]
    #: Per set: the tag read (the presence metadata of the set's first way).
    tag_read: List[int]


class _SetAssocPageTags(TagOrganization):
    """Shared mechanics of the set-associative page organizations.

    Subclasses provide the device-latency model (in-DRAM vs SRAM tags) and
    the row-layout writes; placement, replacement, footprint bookkeeping
    and eviction-time training are identical.

    **Warm-state layout.**  Frame ``f = set * associativity + way`` is entry
    ``f`` of nine flat lists, shared by the scalar path, the batch kernels
    (:mod:`repro.engine.kernels`) and design snapshots:

    * ``valid`` (bool) and ``page`` (the page number, -1 when invalid);
    * block sets as int bit masks (bit ``i`` is block offset ``i``):
      ``vbits`` present, ``dbits`` written, ``demanded`` demanded while
      resident (the true footprint), ``predicted`` brought in by the fetch
      policy at allocation;
    * the allocating access, ``trigger_pc`` / ``trigger_offset``, and
      ``from_history`` (bool): its footprint came from a trained entry.

    The bound :class:`ReplacementComponent` keeps the per-set replacement
    state, indexed the same way.
    """

    _STATE_ATTRS = ("valid", "page", "vbits", "dbits", "demanded",
                    "predicted", "trigger_pc", "trigger_offset",
                    "from_history")
    has_victim_choice = True

    def __init__(self, num_sets: int, associativity: int,
                 blocks_per_page: int, capacity_bytes: int) -> None:
        self.num_sets = num_sets
        self.associativity = associativity
        self.blocks_per_page = blocks_per_page
        self.capacity_bytes = capacity_bytes
        frames = num_sets * associativity
        self.valid: List[bool] = [False] * frames
        self.page: List[int] = [-1] * frames
        self.vbits: List[int] = [0] * frames
        self.dbits: List[int] = [0] * frames
        self.demanded: List[int] = [0] * frames
        self.predicted: List[int] = [0] * frames
        self.trigger_pc: List[int] = [0] * frames
        self.trigger_offset: List[int] = [0] * frames
        self.from_history: List[bool] = [False] * frames
        self._addresses: Dict[int, FrameAddresses] = {}

    def _locate(self, block_address: int) -> "tuple[int, int, int]":
        """(page, set_index, offset) for a block address."""
        raise NotImplementedError

    def probe(self, request: MemoryAccess) -> Lookup:
        page, set_index, offset = self._locate(request.block_address)
        # Invalid frames hold page -1, which no request maps to.
        way = self._way_holding(self.page, set_index, page)
        block_hit = way >= 0 and bool(
            self.vbits[set_index * self.associativity + way] >> offset & 1)
        return Lookup(page=page, set_index=set_index, offset=offset, way=way,
                      block_hit=block_hit, page_hit=way >= 0)

    def touch(self, engine: "ComposedDramCache", request: MemoryAccess,
              lookup: Lookup) -> None:
        frame = lookup.set_index * self.associativity + lookup.way
        self.demanded[frame] |= 1 << lookup.offset
        if request.is_write:
            self.dbits[frame] |= 1 << lookup.offset
        self.replacement.on_access(lookup.set_index, lookup.way)

    def on_hit_write(self, engine: "ComposedDramCache",
                     request: MemoryAccess, lookup: Lookup) -> None:
        self._write_block_device(engine, lookup.set_index, lookup.way,
                                 lookup.offset)

    def fill_block(self, engine: "ComposedDramCache", request: MemoryAccess,
                   lookup: Lookup) -> None:
        frame = lookup.set_index * self.associativity + lookup.way
        self.vbits[frame] |= 1 << lookup.offset
        self._write_block_device(engine, lookup.set_index, lookup.way,
                                 lookup.offset)

    def frame_addresses(self, row_bytes: int) -> FrameAddresses:
        """The frames' device addresses on a stacked DRAM of ``row_bytes``
        rows, built on first use."""
        addresses = self._addresses.get(row_bytes)
        if addresses is None:
            addresses = self._addresses[row_bytes] = (
                self._build_addresses(row_bytes))
        return addresses

    # -- device hooks ---------------------------------------------------- #
    # Device ops address the stacked DRAM through the frame table the batch
    # kernels read, in the same order and with the same sizes as the kernels.
    def _build_addresses(self, row_bytes: int) -> FrameAddresses:
        raise NotImplementedError

    def _block_address(self, engine: "ComposedDramCache", set_index: int,
                       way: int, offset: int) -> int:
        """Device address of block ``offset`` of a frame."""
        return (self.frame_addresses(engine.stacked.row_bytes).data[
            set_index * self.associativity + way]
            + offset * self.config.block_size)

    def _write_block_device(self, engine: "ComposedDramCache", set_index: int,
                            way: int, offset: int) -> None:
        engine.stacked.controller.access(
            self._block_address(engine, set_index, way, offset),
            self.config.block_size, engine._now, True)

    def _read_eviction_metadata(self, engine: "ComposedDramCache",
                                set_index: int, way: int) -> None:
        """Read the (PC, offset) pair from the row (in-DRAM tags only)."""

    def _fill_frame_device(self, engine: "ComposedDramCache", set_index: int,
                           way: int, offsets: List[int]) -> None:
        """Write an allocation's fetched blocks into the frame."""
        access = engine.stacked.controller.access
        base = self._block_address(engine, set_index, way, 0)
        block_bytes = self.config.block_size
        for offset in offsets:
            access(base + offset * block_bytes, BLOCK_SIZE, engine._now, True)

    def _count_conflict_eviction(self, engine: "ComposedDramCache") -> None:
        """Organizations that attribute evictions to conflicts count here."""

    # -- allocation/eviction ------------------------------------------- #
    def _evict(self, engine: "ComposedDramCache", set_index: int,
               way: int) -> int:
        frame = set_index * self.associativity + way
        if not self.valid[frame]:
            return 0
        engine.cache_stats.pages_evicted += 1
        self._count_conflict_eviction(engine)
        self._read_eviction_metadata(engine, set_index, way)
        engine.fetch.learn_eviction(
            self.trigger_pc[frame], self.trigger_offset[frame],
            self.demanded[frame], self.predicted[frame],
            self.from_history[frame],
        )
        dirty_offsets = _offsets(self.dbits[frame] & self.vbits[frame])
        written = 0
        if dirty_offsets:
            base_block = self.page[frame] * self.blocks_per_page
            written = engine.writeback.writeback_blocks(
                engine, [base_block + o for o in dirty_offsets]
            )
        self.valid[frame] = False
        self.page[frame] = -1
        return written

    def allocate(self, engine: "ComposedDramCache", request: MemoryAccess,
                 lookup: Lookup, decision: FetchDecision) -> AllocationOutcome:
        set_index = lookup.set_index
        victim_way = self._victim_way(self.valid, set_index, False)
        written = self._evict(engine, set_index, victim_way)

        footprint = decision.footprint
        fetch_offsets = _offsets(footprint)
        base_block = lookup.page * self.blocks_per_page
        fetch_blocks = [base_block + o for o in fetch_offsets]
        offchip_latency = engine.memory.fetch_blocks(fetch_blocks, engine._now)
        engine.cache_stats.offchip_demand_blocks += 1
        engine.cache_stats.offchip_prefetch_blocks += len(fetch_blocks) - 1

        frame = set_index * self.associativity + victim_way
        trigger = 1 << lookup.offset
        self.valid[frame] = True
        self.page[frame] = lookup.page
        self.vbits[frame] = footprint
        self.dbits[frame] = trigger if request.is_write else 0
        self.demanded[frame] = trigger
        self.predicted[frame] = footprint
        self.from_history[frame] = decision.from_history
        self.trigger_pc[frame] = request.pc
        self.trigger_offset[frame] = lookup.offset
        self.replacement.on_fill(set_index, victim_way)
        engine.cache_stats.pages_allocated += 1

        self._fill_frame_device(engine, set_index, victim_way, fetch_offsets)
        return AllocationOutcome(
            offchip_latency=offchip_latency,
            blocks_fetched=len(fetch_blocks),
            blocks_written=written,
        )


class DramPageTags(_SetAssocPageTags):
    """Unison's organization: tags embedded in the DRAM rows (Figure 2).

    The tag burst and the (way-predicted) data block are read *in unison* --
    two back-to-back, overlapped reads to the same row -- so a hit costs one
    DRAM access plus the tag-transfer overhead.  ``hit_path="serialized"``
    models the same organization without way knowledge: the tag read must
    complete before the data read is issued (the ``unison-nowp`` hybrid).
    """

    kind = "dram-page"

    def __init__(self, config: UnisonCacheConfig,
                 hit_path: str = "overlapped") -> None:
        config.validate()
        if hit_path not in ("overlapped", "serialized"):
            raise ValueError(
                f"hit_path must be 'overlapped' or 'serialized', "
                f"got {hit_path!r}"
            )
        super().__init__(
            num_sets=config.num_sets,
            associativity=config.associativity,
            blocks_per_page=config.blocks_per_page,
            capacity_bytes=config.capacity_bytes,
        )
        self.config = config
        self.hit_path = hit_path
        self.layout = UnisonRowLayout(config)
        self._tag_bytes = self.layout.presence_bytes_per_set
        self._presence_bytes = self.layout.presence_bytes_per_page
        self._metadata_bytes = self.layout.pc_offset_bytes_per_page
        self.mapper = ResidueMapper(
            blocks_per_page=config.blocks_per_page,
            num_sets=config.num_sets,
        )

    @property
    def way_mispredict_penalty_cycles(self) -> int:
        return self.config.way_mispredict_penalty_cycles

    def _locate(self, block_address: int) -> "tuple[int, int, int]":
        location = self.mapper.locate(block_address)
        return (location.page_number, location.set_index,
                location.block_offset)

    # -- latency mechanics --------------------------------------------- #
    def _tag_read(self, engine: "ComposedDramCache", set_index: int) -> int:
        stacked = engine.stacked
        return stacked.controller.access(
            self.frame_addresses(stacked.row_bytes).tag_read[set_index],
            self._tag_bytes, engine._now, False)

    def block_hit_latency(self, engine: "ComposedDramCache",
                          request: MemoryAccess, lookup: Lookup,
                          pred: HitPrediction) -> int:
        read_way = pred.way if pred.way is not None else lookup.way
        tag_latency = self._tag_read(engine, lookup.set_index)
        data_latency = engine.stacked.controller.access(
            self._block_address(engine, lookup.set_index, read_way,
                                lookup.offset),
            BLOCK_SIZE, engine._now, False)
        if self.hit_path == "serialized":
            # No way knowledge: the tag read resolves the way before the data
            # read can be issued, so the two latencies add (Loh-Hill style).
            latency = tag_latency + data_latency
        else:
            # The tag burst goes first and the data read follows back-to-back
            # in the same open row: the pair costs a single row access plus
            # the tag-transfer overhead (Section III-A.6).
            latency = max(tag_latency, data_latency)
        latency += self.config.tag_read_overhead_cycles
        if pred.way is not None and pred.way != lookup.way:
            # Misprediction: the correct way is re-read from the now-open row
            # buffer (cheap, Section III-A.6).
            latency += pred.mispredict_penalty
        return latency

    def miss_lookup_latency(self, engine: "ComposedDramCache",
                            request: MemoryAccess, lookup: Lookup,
                            pred: HitPrediction) -> int:
        """Discovering a miss requires reading the tags from DRAM."""
        return (self._tag_read(engine, lookup.set_index)
                + self.config.tag_read_overhead_cycles)

    # -- device hooks --------------------------------------------------- #
    def _build_addresses(self, row_bytes: int) -> FrameAddresses:
        # The row layout's frame addressing in closed form: its per-row
        # constants are read once, not once per frame.
        layout = self.layout
        pages_per_row = layout.pages_per_row
        data_base = layout.data_base_offset
        page_bytes = layout.page_data_bytes
        presence_bytes = layout.presence_bytes_per_page
        metadata_base = layout.presence_bytes_per_row
        pc_bytes = layout.pc_offset_bytes_per_page
        data, presence, metadata = [], [], []
        for frame in range(self.num_sets * self.associativity):
            row, slot = divmod(frame, pages_per_row)
            base = row * row_bytes
            data.append(base + data_base + slot * page_bytes)
            presence.append(base + slot * presence_bytes)
            metadata.append(base + metadata_base + slot * pc_bytes)
        return FrameAddresses(data, presence, metadata,
                              presence[::self.associativity])

    def _read_eviction_metadata(self, engine: "ComposedDramCache",
                                set_index: int, way: int) -> None:
        # The (PC, offset) pair and bit vectors are read from the row (off
        # the critical path) to train the footprint predictor.
        stacked = engine.stacked
        stacked.controller.access(
            self.frame_addresses(stacked.row_bytes).metadata[
                set_index * self.associativity + way],
            self._metadata_bytes, engine._now, False)

    def _fill_frame_device(self, engine: "ComposedDramCache", set_index: int,
                           way: int, offsets: List[int]) -> None:
        super()._fill_frame_device(engine, set_index, way, offsets)
        stacked = engine.stacked
        stacked.controller.access(
            self.frame_addresses(stacked.row_bytes).presence[
                set_index * self.associativity + way],
            self._presence_bytes, engine._now, True)

    def _count_conflict_eviction(self, engine: "ComposedDramCache") -> None:
        engine.cache_stats.conflict_evictions += 1


class SramPageTags(_SetAssocPageTags):
    """Footprint Cache's organization: SRAM tags, page-granular DRAM data.

    Every access pays the capacity-dependent SRAM tag latency (Table IV);
    data blocks live packed page-by-page in the stacked DRAM rows.
    """

    kind = "sram-page"

    def __init__(self, config: FootprintCacheConfig,
                 tag_latency_cycles: Optional[int] = None) -> None:
        config.validate()
        associativity = min(config.associativity, max(1, config.num_pages))
        super().__init__(
            num_sets=config.num_sets,
            associativity=associativity,
            blocks_per_page=config.blocks_per_page,
            capacity_bytes=config.capacity_bytes,
        )
        self.config = config
        self.tag_latency_cycles = (
            tag_latency_cycles
            if tag_latency_cycles is not None
            else config.tag_array.lookup_latency_cycles
        )
        self.pages_per_row = max(1, config.row_buffer_size // config.page_size)

    def _locate(self, block_address: int) -> "tuple[int, int, int]":
        page = block_address // self.blocks_per_page
        offset = block_address % self.blocks_per_page
        return page, page % self.num_sets, offset

    def block_hit_latency(self, engine: "ComposedDramCache",
                          request: MemoryAccess, lookup: Lookup,
                          pred: HitPrediction) -> int:
        return self.tag_latency_cycles + engine.stacked.controller.access(
            self._block_address(engine, lookup.set_index, lookup.way,
                                lookup.offset),
            self.config.block_size, engine._now, False)

    def miss_lookup_latency(self, engine: "ComposedDramCache",
                            request: MemoryAccess, lookup: Lookup,
                            pred: HitPrediction) -> int:
        """The SRAM lookup resolves hit/miss; no DRAM access needed."""
        return self.tag_latency_cycles

    def _build_addresses(self, row_bytes: int) -> FrameAddresses:
        frames = self.num_sets * self.associativity
        pages_per_row = self.pages_per_row
        page_size = self.config.page_size
        return FrameAddresses(
            [frame // pages_per_row * row_bytes
             + frame % pages_per_row * page_size
             for frame in range(frames)], [], [], [])


class DirectMappedBlockTags(TagOrganization):
    """Alloy's organization: direct-mapped tag-and-data (TAD) blocks.

    A hit streams the whole 72-byte TAD in one DRAM access.  With
    ``page_blocks > 1`` the organization keeps its per-block placement but
    presents a multi-block page view to the fetch policy, installing each
    fetched block into its own direct-mapped frame -- the ``alloy+footprint``
    hybrid.  A small region observer then reconstructs per-page demanded
    footprints so eviction-time learning still works without page frames.
    """

    kind = "direct-mapped"
    _STATE_ATTRS = ("tag_array", "dirty", "_regions")

    def __init__(self, config: AlloyCacheConfig, page_blocks: int = 1,
                 region_observer_entries: int = 4096) -> None:
        config.validate()
        if page_blocks < 1:
            raise ValueError("page_blocks must be positive")
        self.config = config
        self.blocks_per_page = page_blocks
        self.associativity = 1
        self.capacity_bytes = config.capacity_bytes
        self.num_blocks = config.num_blocks
        # Direct-mapped arrays: tag per frame (-1 == invalid) and dirty flag.
        self.tag_array: List[int] = [-1] * self.num_blocks
        self.dirty: List[bool] = [False] * self.num_blocks
        # Region observer (page_blocks > 1 only): page -> (trigger pc,
        # trigger offset, demanded mask, predicted mask, from_history), an
        # LRU-bounded stand-in for a page frame's footprint bookkeeping
        # (insertion-ordered dict; demands re-insert at the back).
        self.region_observer_entries = region_observer_entries
        self._regions: "Dict[int, tuple[int, int, int, int, bool]]" = {}

    # -- placement ------------------------------------------------------ #
    def _frame_of(self, block_address: int) -> int:
        return block_address % self.num_blocks

    def _tag_of(self, block_address: int) -> int:
        return block_address // self.num_blocks

    def _row_of_frame(self, frame: int) -> "tuple[int, int]":
        row = frame // self.config.blocks_per_row
        slot = frame % self.config.blocks_per_row
        return row, slot * self.config.tad_bytes

    def probe(self, request: MemoryAccess) -> Lookup:
        block = request.block_address
        frame = self._frame_of(block)
        hit = self.tag_array[frame] == self._tag_of(block)
        return Lookup(
            page=block // self.blocks_per_page,
            set_index=frame,
            offset=block % self.blocks_per_page,
            way=0 if hit else -1,
            block_hit=hit,
            page_hit=hit,
        )

    # -- hit path -------------------------------------------------------- #
    def touch(self, engine: "ComposedDramCache", request: MemoryAccess,
              lookup: Lookup) -> None:
        if self.blocks_per_page > 1:
            self.observe_demand(lookup.page, lookup.offset)

    def _tad_read(self, engine: "ComposedDramCache", frame: int) -> int:
        row, offset = self._row_of_frame(frame)
        return engine.stacked.read(row, offset, self.config.tad_bytes,
                                   engine._now)

    def block_hit_latency(self, engine: "ComposedDramCache",
                          request: MemoryAccess, lookup: Lookup,
                          pred: HitPrediction) -> int:
        return self._tad_read(engine, lookup.set_index)

    def on_hit_write(self, engine: "ComposedDramCache",
                     request: MemoryAccess, lookup: Lookup) -> None:
        frame = lookup.set_index
        row, offset = self._row_of_frame(frame)
        engine.stacked.write(row, offset, self.config.tad_bytes, engine._now)
        self.dirty[frame] = True

    def miss_lookup_latency(self, engine: "ComposedDramCache",
                            request: MemoryAccess, lookup: Lookup,
                            pred: HitPrediction) -> int:
        if pred.predicted_miss:
            # Correctly predicted miss: the off-chip request is issued
            # immediately, hiding the DRAM-cache lookup entirely.
            return 0
        return self._tad_read(engine, lookup.set_index)

    # -- region observer (footprint-fetch hybrids) ----------------------- #
    # Shared with the batch kernel; multi-block pages only.
    def observe_demand(self, page: int, offset: int) -> None:
        entry = self._regions.pop(page, None)
        if entry is not None:
            pc, trigger, demanded, predicted, from_history = entry
            # Re-insert at the back: a still-demanded region stays resident
            # in the observer (true LRU, matching the page frames it
            # stands in for).
            self._regions[page] = (pc, trigger, demanded | 1 << offset,
                                   predicted, from_history)

    def observe_allocation(self, engine: "ComposedDramCache", page: int,
                           pc: int, offset: int, footprint: int,
                           from_history: bool) -> None:
        stale = self._regions.pop(page, None)
        if stale is None and len(self._regions) >= self.region_observer_entries:
            # Capacity eviction: the least-recently-demanded region learns.
            stale = self._regions.pop(next(iter(self._regions)))
        if stale is not None:
            engine.fetch.learn_eviction(*stale)
        self._regions[page] = (pc, offset, 1 << offset, footprint,
                               from_history)

    # -- miss path ------------------------------------------------------- #
    def fill_block(self, engine: "ComposedDramCache", request: MemoryAccess,
                   lookup: Lookup) -> None:  # pragma: no cover - unreachable
        raise RuntimeError(
            "a direct-mapped block organization has no partial pages"
        )

    def _install(self, engine: "ComposedDramCache", block: int,
                 dirty: bool) -> int:
        """Install one fetched block; returns dirty blocks written back."""
        frame = self._frame_of(block)
        tag = self._tag_of(block)
        written = 0
        if self.tag_array[frame] >= 0 and self.dirty[frame]:
            victim_block = self.tag_array[frame] * self.num_blocks + frame
            written = engine.writeback.writeback_block(engine, victim_block)
        if self.tag_array[frame] >= 0:
            engine.cache_stats.pages_evicted += 1
        self.tag_array[frame] = tag
        self.dirty[frame] = dirty
        engine.cache_stats.pages_allocated += 1
        row, offset = self._row_of_frame(frame)
        engine.stacked.write(row, offset, self.config.tad_bytes, engine._now)
        return written

    def allocate(self, engine: "ComposedDramCache", request: MemoryAccess,
                 lookup: Lookup, decision: FetchDecision) -> AllocationOutcome:
        offsets = _offsets(decision.footprint)
        base_block = lookup.page * self.blocks_per_page
        if len(offsets) == 1:
            offchip = engine.memory.read_block(request.block_address,
                                               engine._now)
            engine.cache_stats.offchip_demand_blocks += 1
            written = self._install(engine, request.block_address,
                                    request.is_write)
            return AllocationOutcome(offchip_latency=offchip,
                                     blocks_fetched=1, blocks_written=written)
        # Multi-block footprint (hybrid): fetch the region, install each
        # block into its own direct-mapped frame.
        fetch_blocks = [base_block + o for o in offsets]
        offchip = engine.memory.fetch_blocks(fetch_blocks, engine._now)
        engine.cache_stats.offchip_demand_blocks += 1
        engine.cache_stats.offchip_prefetch_blocks += len(fetch_blocks) - 1
        written = 0
        for block in fetch_blocks:
            written += self._install(
                engine, block,
                dirty=request.is_write and block == request.block_address,
            )
        self.observe_allocation(engine, lookup.page, request.pc,
                                lookup.offset, decision.footprint,
                                decision.from_history)
        return AllocationOutcome(offchip_latency=offchip,
                                 blocks_fetched=len(fetch_blocks),
                                 blocks_written=written)


class MissMapBlockTags(TagOrganization):
    """Loh-Hill's organization: set-per-row tags-in-DRAM behind a MissMap.

    Each DRAM row forms one set whose first block slots hold the tags for
    the remaining data blocks; a hit pays MissMap latency plus the
    serialized tag-then-data reads (the row stays open, so the data read is
    a row-buffer hit).  The on-chip MissMap lets true misses skip the
    in-DRAM tag lookup entirely.
    """

    kind = "missmap"
    _STATE_ATTRS = ("tag_array", "dirty", "missmap")
    has_victim_choice = True

    #: Bytes of tag metadata kept per data block (tag + state bits).
    TAG_ENTRY_BYTES = 6

    def __init__(self, capacity_bytes: int, row_buffer_size: int = 8 * 1024,
                 block_size: int = 64,
                 missmap_latency_cycles: int = 8) -> None:
        if row_buffer_size % block_size:
            raise ValueError("row_buffer_size must be a multiple of block_size")
        self.capacity_bytes = capacity_bytes
        self.blocks_per_page = 1
        self.block_size = block_size
        self.row_buffer_size = row_buffer_size
        self.missmap_latency_cycles = missmap_latency_cycles

        blocks_per_row = row_buffer_size // block_size
        # Reserve the smallest number of block slots whose bytes can hold
        # the tag entries of all remaining slots (2 KB rows -> 3 tag + 29
        # data blocks, exactly the original design).
        tag_blocks = 1
        while ((blocks_per_row - tag_blocks) * self.TAG_ENTRY_BYTES
               > tag_blocks * block_size):
            tag_blocks += 1
        self.tag_blocks_per_row = tag_blocks
        #: Data blocks per set.
        self.associativity = blocks_per_row - tag_blocks
        self.num_sets = capacity_bytes // row_buffer_size
        if self.num_sets < 1:
            raise ValueError("capacity must hold at least one DRAM row")

        # Tag (-1 == invalid) and dirty flag of block slot
        # ``set * associativity + way``.
        frames = self.num_sets * self.associativity
        self.tag_array: List[int] = [-1] * frames
        self.dirty: List[bool] = [False] * frames
        # The MissMap: presence bits for every block the cache may hold.
        self.missmap: Dict[int, bool] = {}

    def _locate(self, block_address: int) -> "tuple[int, int]":
        return block_address % self.num_sets, block_address // self.num_sets

    def probe(self, request: MemoryAccess) -> Lookup:
        block = request.block_address
        set_index, tag = self._locate(block)
        way = self._way_holding(self.tag_array, set_index, tag)
        present = self.missmap.get(block, False)
        return Lookup(page=block, set_index=set_index, offset=0, way=way,
                      block_hit=present, page_hit=present)

    def touch(self, engine: "ComposedDramCache", request: MemoryAccess,
              lookup: Lookup) -> None:
        self.replacement.on_access(lookup.set_index, max(lookup.way, 0))

    def _tag_read(self, engine: "ComposedDramCache", set_index: int) -> int:
        return engine.stacked.read(
            set_index, 0, self.tag_blocks_per_row * self.block_size,
            engine._now,
        )

    def _data_read(self, engine: "ComposedDramCache", set_index: int,
                   way: int) -> int:
        offset = (self.tag_blocks_per_row + way) * self.block_size
        return engine.stacked.read(set_index, offset, self.block_size,
                                   engine._now)

    def block_hit_latency(self, engine: "ComposedDramCache",
                          request: MemoryAccess, lookup: Lookup,
                          pred: HitPrediction) -> int:
        # Tag read, then the data read (serialized; the data read hits the
        # open row).
        tag_latency = self._tag_read(engine, lookup.set_index)
        data_latency = self._data_read(engine, lookup.set_index,
                                       max(lookup.way, 0))
        return self.missmap_latency_cycles + tag_latency + data_latency

    def on_hit_write(self, engine: "ComposedDramCache",
                     request: MemoryAccess, lookup: Lookup) -> None:
        self.dirty[lookup.set_index * self.associativity
                   + max(lookup.way, 0)] = True

    def miss_lookup_latency(self, engine: "ComposedDramCache",
                            request: MemoryAccess, lookup: Lookup,
                            pred: HitPrediction) -> int:
        # The MissMap already said "absent": no in-DRAM tag read happens.
        return self.missmap_latency_cycles

    def allocate(self, engine: "ComposedDramCache", request: MemoryAccess,
                 lookup: Lookup, decision: FetchDecision) -> AllocationOutcome:
        offchip = engine.memory.read_block(request.block_address, engine._now)
        engine.cache_stats.offchip_demand_blocks += 1

        set_index = lookup.set_index
        tag = request.block_address // self.num_sets
        written = 0
        victim_way = self._victim_way(self.tag_array, set_index, -1)
        frame = set_index * self.associativity + victim_way
        victim_tag = self.tag_array[frame]
        if victim_tag >= 0:
            victim_block = victim_tag * self.num_sets + set_index
            self.missmap.pop(victim_block, None)
            if self.dirty[frame]:
                written = engine.writeback.writeback_block(engine,
                                                           victim_block)
            engine.cache_stats.pages_evicted += 1
        self.tag_array[frame] = tag
        self.dirty[frame] = request.is_write
        self.replacement.on_fill(set_index, victim_way)
        self.missmap[request.block_address] = True
        engine.cache_stats.pages_allocated += 1
        # Update the in-row tag block and write the data block.
        engine.stacked.write(set_index, 0, self.block_size, engine._now)
        engine.stacked.write(
            set_index,
            (self.tag_blocks_per_row + victim_way) * self.block_size,
            self.block_size, engine._now,
        )
        return AllocationOutcome(offchip_latency=offchip, blocks_fetched=1,
                                 blocks_written=written)

    def contribute_stats(self, group: StatGroup) -> None:
        group.set("missmap_entries", len(self.missmap))


class AlwaysHitTags(TagOrganization):
    """The ideal reference point: every access hits, no tag overhead."""

    kind = "always-hit"

    def __init__(self, capacity_bytes: int, row_buffer_size: int = 8 * 1024,
                 block_size: int = 64) -> None:
        self.capacity_bytes = capacity_bytes
        self.blocks_per_page = 1
        self.associativity = 1
        self.row_buffer_size = row_buffer_size
        self.block_size = block_size

    def probe(self, request: MemoryAccess) -> Lookup:
        return Lookup(page=request.block_address, set_index=0, offset=0,
                      way=0, block_hit=True, page_hit=True)

    def block_hit_latency(self, engine: "ComposedDramCache",
                          request: MemoryAccess, lookup: Lookup,
                          pred: HitPrediction) -> int:
        row = request.address // self.row_buffer_size
        offset = ((request.address % self.row_buffer_size)
                  // self.block_size * self.block_size)
        return engine.stacked.read(row, offset, self.block_size,
                                   engine._now)


class NoCacheTags(TagOrganization):
    """No stacked-DRAM cache at all: every request goes off chip."""

    kind = "no-cache"

    def __init__(self) -> None:
        self.capacity_bytes = 1
        self.blocks_per_page = 1
        self.associativity = 1

    def probe(self, request: MemoryAccess) -> Lookup:
        return Lookup(page=request.block_address, set_index=0, offset=0,
                      way=-1, block_hit=False, page_hit=False)

    def allocate(self, engine: "ComposedDramCache", request: MemoryAccess,
                 lookup: Lookup, decision: FetchDecision) -> AllocationOutcome:
        if request.is_write:
            latency = engine.memory.write_block(request.block_address,
                                                engine._now)
            engine.cache_stats.offchip_writeback_blocks += 1
            return AllocationOutcome(offchip_latency=latency,
                                     blocks_fetched=0, blocks_written=1)
        latency = engine.memory.read_block(request.block_address, engine._now)
        engine.cache_stats.offchip_demand_blocks += 1
        return AllocationOutcome(offchip_latency=latency, blocks_fetched=1,
                                 blocks_written=0)


# --------------------------------------------------------------------- #
# Tag-organization factories
# --------------------------------------------------------------------- #
def _build_dram_page_tags(context: "DesignBuildContext",
                          blocks_per_page: int = 15,
                          associativity: int = 4,
                          hit_path: str = "overlapped") -> DramPageTags:
    if context.associativity is not None:
        associativity = context.associativity
    # Way prediction is owned by the hit-predictor component, not the tag
    # organization: the config's predictor fields stay at their defaults
    # here (the organization never consults them).
    config = UnisonCacheConfig(
        capacity=context.scaled_capacity_bytes,
        blocks_per_page=blocks_per_page,
        associativity=associativity,
    )
    return DramPageTags(config, hit_path=hit_path)


def _build_sram_page_tags(context: "DesignBuildContext",
                          page_size: int = 2048,
                          associativity: int = 32) -> SramPageTags:
    if context.associativity is not None:
        associativity = context.associativity
    # The SRAM tag latency is dictated by the *paper* capacity (Table IV).
    tag_latency = footprint_tag_array_for_capacity(
        context.paper_capacity_bytes
    ).lookup_latency_cycles
    config = FootprintCacheConfig(
        capacity=context.scaled_capacity_bytes,
        page_size=page_size,
        associativity=associativity,
    )
    return SramPageTags(config, tag_latency_cycles=tag_latency)


def _build_direct_mapped_tags(context: "DesignBuildContext",
                              page_blocks: int = 1,
                              region_observer_entries: int = 4096,
                              ) -> DirectMappedBlockTags:
    return DirectMappedBlockTags(
        AlloyCacheConfig(capacity=context.scaled_capacity_bytes),
        page_blocks=page_blocks,
        region_observer_entries=region_observer_entries,
    )


def _build_missmap_tags(context: "DesignBuildContext",
                        missmap_latency_cycles: int = 8) -> MissMapBlockTags:
    return MissMapBlockTags(
        context.scaled_capacity_bytes,
        missmap_latency_cycles=missmap_latency_cycles,
    )


def _build_always_hit_tags(context: "DesignBuildContext") -> AlwaysHitTags:
    return AlwaysHitTags(context.scaled_capacity_bytes)


def _build_no_cache_tags(context: "DesignBuildContext") -> NoCacheTags:
    return NoCacheTags()


TAG_ORGANIZATIONS.register("dram-page", _build_dram_page_tags)
TAG_ORGANIZATIONS.register("sram-page", _build_sram_page_tags)
TAG_ORGANIZATIONS.register("direct-mapped", _build_direct_mapped_tags)
TAG_ORGANIZATIONS.register("missmap", _build_missmap_tags)
TAG_ORGANIZATIONS.register("always-hit", _build_always_hit_tags)
TAG_ORGANIZATIONS.register("no-cache", _build_no_cache_tags)


__all__ = [
    "AllocationOutcome",
    "AlwaysHitTags",
    "CachePolicyComponent",
    "ComponentRegistry",
    "DemandBlockFetch",
    "DirectMappedBlockTags",
    "DisabledMissPrediction",
    "DramPageTags",
    "DropDirtyPolicy",
    "FETCH_POLICIES",
    "FetchDecision",
    "FetchPolicy",
    "FootprintFetch",
    "FrameAddresses",
    "FullPageFetch",
    "HIT_PREDICTORS",
    "HitPredictor",
    "HitPrediction",
    "Lookup",
    "LruReplacement",
    "MissMapBlockTags",
    "MissPredictionPolicy",
    "NoCacheTags",
    "NoHitPrediction",
    "OracleWayPrediction",
    "REPLACEMENT_POLICIES",
    "RandomReplacement",
    "ReplacementComponent",
    "RripReplacement",
    "SramPageTags",
    "TAG_ORGANIZATIONS",
    "TagOrganization",
    "WRITEBACK_POLICIES",
    "WayPredictionPolicy",
    "WritebackDirtyPolicy",
    "WritebackPolicy",
]
