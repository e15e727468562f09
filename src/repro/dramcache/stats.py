"""Statistics shared by all DRAM cache designs.

Each design owns one :class:`DramCacheStats` instance and records every access
outcome into it; the experiment harness and the analytic performance model
read only this uniform record, so designs are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.stats.counters import StatGroup


@dataclass
class DramCacheStats:
    """Uniform per-design statistics record."""

    name: str = "dram_cache"

    # Hit/miss behaviour
    hits: int = 0
    misses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0

    # Latency accounting (CPU cycles, summed over accesses)
    total_hit_latency: int = 0
    total_miss_latency: int = 0

    # Off-chip traffic in 64-byte blocks
    offchip_demand_blocks: int = 0      # blocks fetched because they were demanded
    offchip_prefetch_blocks: int = 0    # blocks fetched speculatively (footprints, mispredicted misses)
    offchip_writeback_blocks: int = 0   # dirty blocks written back to memory

    # Allocation behaviour
    pages_allocated: int = 0
    pages_evicted: int = 0
    singleton_bypasses: int = 0
    underprediction_misses: int = 0
    conflict_evictions: int = 0

    # Extra bookkeeping some designs use
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Miss ratio over all accesses (0.0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """Hit ratio over all accesses."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def average_hit_latency(self) -> float:
        """Mean hit latency in CPU cycles."""
        if self.hits == 0:
            return 0.0
        return self.total_hit_latency / self.hits

    @property
    def average_miss_latency(self) -> float:
        """Mean miss latency in CPU cycles."""
        if self.misses == 0:
            return 0.0
        return self.total_miss_latency / self.misses

    @property
    def average_access_latency(self) -> float:
        """Mean latency over all accesses."""
        if self.accesses == 0:
            return 0.0
        return (self.total_hit_latency + self.total_miss_latency) / self.accesses

    @property
    def offchip_total_blocks(self) -> int:
        """Total off-chip traffic in blocks."""
        return (self.offchip_demand_blocks + self.offchip_prefetch_blocks
                + self.offchip_writeback_blocks)

    @property
    def offchip_blocks_per_access(self) -> float:
        """Off-chip blocks moved per DRAM-cache access (bandwidth efficiency)."""
        if self.accesses == 0:
            return 0.0
        return self.offchip_total_blocks / self.accesses

    # ------------------------------------------------------------------ #
    def record_hit(self, latency: int, is_write: bool) -> None:
        """Account one hit."""
        self.hits += 1
        self.total_hit_latency += latency
        self._record_type(is_write)

    def record_miss(self, latency: int, is_write: bool) -> None:
        """Account one miss."""
        self.misses += 1
        self.total_miss_latency += latency
        self._record_type(is_write)

    def _record_type(self, is_write: bool) -> None:
        if is_write:
            self.write_accesses += 1
        else:
            self.read_accesses += 1

    def reset(self) -> None:
        """Zero every counter (warm-up boundary); the design keeps its contents."""
        extra_keys = list(self.extra)
        self.__init__(name=self.name)  # type: ignore[misc]
        for key in extra_keys:
            self.extra[key] = 0

    # ------------------------------------------------------------------ #
    def stats(self) -> StatGroup:
        """Flatten into a :class:`StatGroup` for reporting."""
        group = StatGroup(self.name)
        group.set("hits", self.hits)
        group.set("misses", self.misses)
        group.set("accesses", self.accesses)
        group.set("miss_ratio", self.miss_ratio)
        group.set("hit_ratio", self.hit_ratio)
        group.set("avg_hit_latency", self.average_hit_latency)
        group.set("avg_miss_latency", self.average_miss_latency)
        group.set("avg_access_latency", self.average_access_latency)
        group.set("offchip_demand_blocks", self.offchip_demand_blocks)
        group.set("offchip_prefetch_blocks", self.offchip_prefetch_blocks)
        group.set("offchip_writeback_blocks", self.offchip_writeback_blocks)
        group.set("offchip_total_blocks", self.offchip_total_blocks)
        group.set("offchip_blocks_per_access", self.offchip_blocks_per_access)
        group.set("pages_allocated", self.pages_allocated)
        group.set("pages_evicted", self.pages_evicted)
        group.set("singleton_bypasses", self.singleton_bypasses)
        group.set("underprediction_misses", self.underprediction_misses)
        group.set("conflict_evictions", self.conflict_evictions)
        for key, value in self.extra.items():
            group.set(f"extra.{key}", value)
        return group


#: Warm-state buffers (see :func:`repro.dramcache.base.state_leaves`): every
#: counter.
DramCacheStats._STATE_ATTRS = tuple(f.name for f in fields(DramCacheStats)
                                    if f.name != "name")
