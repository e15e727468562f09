"""The composed DRAM-cache engine.

:class:`ComposedDramCache` is one generic ``_service_request`` driving five
pluggable policy components (see :mod:`repro.dramcache.components`):

1. the :class:`~repro.dramcache.components.TagOrganization` *probes* where
   the request lands (no devices touched);
2. the :class:`~repro.dramcache.components.HitPredictor` *observes* the
   access -- training itself on the true outcome -- and contributes a latency
   and/or a predicted way or predicted miss;
3. a block hit pays the organization's hit latency (plus any wasted off-chip
   fetch a false miss prediction issued in parallel);
4. a resident page missing the block fetches just that block (the
   footprint-underprediction path);
5. a trigger miss asks the :class:`~repro.dramcache.components.FetchPolicy`
   what to bring on chip -- possibly a bypass -- and the organization
   allocates, evicting through the
   :class:`~repro.dramcache.components.WritebackPolicy`.

6. eviction victims come from the
   :class:`~repro.dramcache.components.ReplacementComponent` the tag
   organization is bound to (LRU by default).

Every design is a component set on this engine, declared with a
:class:`repro.dramcache.spec.DesignSpec`: the paper's six (Unison, Alloy,
Footprint, Loh-Hill, Ideal, NoCache) and hybrids such as
``alloy+footprint`` alike.

Component state folds into the accumulated ``_STATE_ATTRS`` snapshot
mechanism: the engine declares its five component slots, and each component
declares its own flat buffers (tag lists, replacement lists, predictor
tables), so :meth:`~repro.dramcache.base.DramCacheModel.snapshot_state`
copies exactly those buffers and ``restore_state`` writes them back in
place.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dramcache.base import DramCacheAccessResult, DramCacheModel
from repro.dramcache.components import (
    DemandBlockFetch,
    FetchPolicy,
    HitPredictor,
    LruReplacement,
    MissPredictionPolicy,
    NoHitPrediction,
    ReplacementComponent,
    TagOrganization,
    WayPredictionPolicy,
    WritebackDirtyPolicy,
    WritebackPolicy,
)
from repro.mem.main_memory import MainMemory
from repro.mem.stacked import StackedDram
from repro.predictors.way import WayPredictor
from repro.stats.counters import StatGroup
from repro.trace.record import MemoryAccess


class ComposedDramCache(DramCacheModel):
    """A DRAM cache assembled from policy components."""

    design_name = "composed"

    #: Warm state beyond the base's: the component slots, each walked for
    #: the buffers it declares (tag arrays, replacement state, predictor
    #: tables).
    _STATE_ATTRS = ("tags", "hit_predictor", "fetch", "writeback",
                    "replacement")

    def __init__(self, tags: TagOrganization,
                 hit_predictor: Optional[HitPredictor] = None,
                 fetch: Optional[FetchPolicy] = None,
                 writeback: Optional[WritebackPolicy] = None,
                 replacement: Optional[ReplacementComponent] = None,
                 stacked: Optional[StackedDram] = None,
                 memory: Optional[MainMemory] = None,
                 interarrival_cycles: int = 6,
                 design_name: Optional[str] = None) -> None:
        if design_name is not None:
            self.design_name = design_name
        super().__init__(tags.capacity_bytes, stacked, memory,
                         interarrival_cycles=interarrival_cycles)
        self.tags = tags
        self.hit_predictor = hit_predictor or NoHitPrediction()
        self.fetch = fetch or DemandBlockFetch()
        self.writeback = writeback or WritebackDirtyPolicy()
        self.replacement = replacement or LruReplacement()
        # Bind the replacement state to the organization's geometry before
        # any access touches the arrays.
        self.tags.apply_replacement(self.replacement)

    # ------------------------------------------------------------------ #
    def _components(self) -> "tuple":
        """The component slots in reporting order (fetch metrics first, to
        match the legacy designs' metric ordering)."""
        return (self.fetch, self.hit_predictor, self.tags, self.writeback,
                self.replacement)

    # ------------------------------------------------------------------ #
    # The one generic service path
    # ------------------------------------------------------------------ #
    def _service_request(self, request: MemoryAccess) -> DramCacheAccessResult:
        lookup = self.tags.probe(request)
        pred = self.hit_predictor.observe(self, request, lookup)
        if lookup.page_hit:
            self.tags.touch(self, request, lookup)

        if lookup.block_hit:
            latency = (pred.latency_cycles
                       + self.tags.block_hit_latency(self, request, lookup,
                                                     pred))
            extra_fetch = 0
            if pred.predicted_miss:
                # False miss prediction: an unnecessary off-chip fetch was
                # issued in parallel; the data still returns from the cache,
                # but the memory request wastes bandwidth (Section II-A).
                self.memory.read_block(request.block_address, self._now)
                self.cache_stats.offchip_prefetch_blocks += 1
                extra_fetch = 1
            if request.is_write:
                self.tags.on_hit_write(self, request, lookup)
            self.cache_stats.record_hit(latency, request.is_write)
            return DramCacheAccessResult(
                hit=True, latency_cycles=latency,
                offchip_blocks_fetched=extra_fetch,
            )

        if lookup.page_hit:
            # Resident page, absent block (footprint underprediction): only
            # the missing block is brought in; the fetch policy is corrected
            # lazily at eviction through the demanded vector.
            self.cache_stats.underprediction_misses += 1
            lookup_latency = self.tags.miss_lookup_latency(self, request,
                                                           lookup, pred)
            offchip = self.memory.read_block(request.block_address, self._now)
            self.cache_stats.offchip_demand_blocks += 1
            self.tags.fill_block(self, request, lookup)
            latency = pred.latency_cycles + lookup_latency + offchip
            self.cache_stats.record_miss(latency, request.is_write)
            return DramCacheAccessResult(
                hit=False, latency_cycles=latency, offchip_blocks_fetched=1,
            )

        # Trigger miss.
        lookup_latency = self.tags.miss_lookup_latency(self, request, lookup,
                                                       pred)
        decision = self.fetch.plan(self, request, lookup)
        if decision.bypass:
            # Predicted singleton: forward the block without allocating.
            offchip = self.memory.read_block(request.block_address, self._now)
            self.cache_stats.offchip_demand_blocks += 1
            self.cache_stats.singleton_bypasses += 1
            self.fetch.on_bypass(self, request, lookup, decision)
            latency = pred.latency_cycles + lookup_latency + offchip
            self.cache_stats.record_miss(latency, request.is_write)
            return DramCacheAccessResult(
                hit=False, latency_cycles=latency, offchip_blocks_fetched=1,
            )

        outcome = self.tags.allocate(self, request, lookup, decision)
        latency = pred.latency_cycles + lookup_latency + outcome.offchip_latency
        self.cache_stats.record_miss(latency, request.is_write)
        return DramCacheAccessResult(
            hit=False,
            latency_cycles=latency,
            offchip_blocks_fetched=outcome.blocks_fetched,
            offchip_blocks_written=outcome.blocks_written,
        )

    # ------------------------------------------------------------------ #
    # Component-driven reporting
    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        """Reset cache and component statistics; contents/training persist."""
        super().reset_stats()
        for component in self._components():
            component.reset_stats()

    def extra_metrics(self) -> Dict[str, float]:
        """Union of every component's metrics (predictor accuracies etc.)."""
        metrics: Dict[str, float] = {}
        for component in self._components():
            metrics.update(component.extra_metrics(self))
        return metrics

    def stats(self) -> StatGroup:
        """Design, component, and device statistics."""
        group = super().stats()
        for component in self._components():
            for child in component.stats_children():
                group.merge_child(child)
            component.contribute_stats(group)
        return group

    # ------------------------------------------------------------------ #
    # Accessors into the components
    # ------------------------------------------------------------------ #
    @property
    def way_predictor(self) -> Optional[WayPredictor]:
        """The way predictor, or ``None`` when way prediction is off."""
        if isinstance(self.hit_predictor, WayPredictionPolicy):
            return self.hit_predictor.predictor
        return None

    @way_predictor.setter
    def way_predictor(self, value: Optional[WayPredictor]) -> None:
        # The ablation benchmarks disable (or swap) the predictor in place:
        # ``design.way_predictor = None`` restores the oracle lookup path.
        if value is None:
            from repro.dramcache.components import OracleWayPrediction

            self.hit_predictor = OracleWayPrediction()
            return
        penalty = getattr(self.tags, "way_mispredict_penalty_cycles", 12)
        self.hit_predictor = WayPredictionPolicy(
            value, mispredict_penalty_cycles=penalty)

    @property
    def miss_predictor(self):
        """The MAP-I miss predictor, or ``None`` when absent."""
        if isinstance(self.hit_predictor, MissPredictionPolicy):
            return self.hit_predictor.predictor
        return None

    @property
    def footprint_predictor(self):
        """The footprint history table (footprint-fetch designs only)."""
        return self.fetch.predictor

    @property
    def singleton_table(self):
        """The singleton table (footprint-fetch designs only)."""
        return self.fetch.singleton_table

    # -- metric properties shared by the design families ----------------- #
    @property
    def way_prediction_accuracy(self) -> float:
        """Measured way-predictor accuracy (Table V's WP row)."""
        predictor = self.way_predictor
        if predictor is None:
            return 1.0
        return predictor.accuracy.value

    @property
    def miss_prediction_accuracy(self) -> float:
        """Fraction of misses correctly identified (Table V)."""
        predictor = self.miss_predictor
        if predictor is None:
            return 0.0
        return predictor.miss_identification.value

    @property
    def miss_predictor_overfetch(self) -> float:
        """Extra off-chip fetches caused by false miss predictions, per hit."""
        predictor = self.miss_predictor
        if predictor is None or self.cache_stats.hits == 0:
            return 0.0
        return predictor.false_misses / self.cache_stats.hits

    @property
    def footprint_accuracy(self) -> float:
        """Measured footprint-predictor accuracy (Table V's FP row)."""
        return self.footprint_predictor.accuracy_ratio

    @property
    def footprint_overfetch(self) -> float:
        """Measured footprint overfetch ratio (Table V)."""
        return self.footprint_predictor.overfetch_ratio

    # ------------------------------------------------------------------ #
    def describe_components(self) -> str:
        """One-line component breakdown (``repro designs``)."""
        return (f"tags={self.tags.kind} "
                f"hit_predictor={self.hit_predictor.kind} "
                f"fetch={self.fetch.kind} writeback={self.writeback.kind} "
                f"replacement={self.replacement.kind}")


__all__ = ["ComposedDramCache"]
