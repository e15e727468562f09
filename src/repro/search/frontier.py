"""CI-aware Pareto analysis over sampled design measurements.

Sampled runs report each metric as a mean plus a 95% confidence half-width
(:class:`~repro.stats.confidence.ConfidenceInterval`).  Treating those means
as exact would let measurement noise fabricate dominance, so both the
successive-halving prune and the final Pareto frontier compare *intervals*:

* design A only dominates design B on an objective when A's **pessimistic**
  bound is at least as good as B's **optimistic** bound -- overlapping
  intervals never decide;
* a rung prune keeps every design whose optimistic bound still reaches the
  cutoff set by the promoted designs' pessimistic bounds.

Objectives are fixed to the paper's axes: miss ratio (minimize), speedup
over no-cache (maximize), and estimated SRAM overhead in bytes (minimize --
the deterministic cost model in :func:`sram_overhead_bytes`, covering SRAM
tag arrays, the MissMap, and the predictor tables of Table IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.cache_configs import (
    FOOTPRINT_TABLE_ENTRIES,
    SINGLETON_TABLE_ENTRIES,
    way_predictor_index_bits_for_capacity,
)
from repro.dramcache.spec import DesignSpec
from repro.stats.confidence import ConfidenceInterval

#: (metric key, direction); direction "min" or "max".
OBJECTIVES: Tuple[Tuple[str, str], ...] = (
    ("miss_ratio", "min"),
    ("speedup", "max"),
    ("sram_overhead_bytes", "min"),
)


def _get(record, key, default=None):
    """Field access across ExperimentResult objects and plain dicts."""
    if isinstance(record, dict):
        return record.get(key, default)
    return getattr(record, key, default)


def interval_from_record(record, metric: str) -> ConfidenceInterval:
    """The sampled CI of ``metric`` ("miss_ratio" or "speedup").

    Unsampled (full-run) records carry no half-width keys and collapse to
    zero-width intervals -- the measurement is exact, so interval dominance
    degenerates to plain mean comparison, which is what exactness means.
    """
    extra = _get(record, "extra", None) or {}
    if metric == "miss_ratio":
        mean = float(_get(record, "miss_ratio", 0.0))
        half = float(extra.get("sampling_miss_ratio_half_width", 0.0))
    elif metric == "speedup":
        mean = float(_get(record, "speedup_vs_no_cache", 0.0) or 0.0)
        half = float(extra.get("sampling_speedup_half_width", 0.0))
    else:
        raise ValueError(f"unknown sampled metric {metric!r}")
    return ConfidenceInterval(mean=mean, half_width=half)


# --------------------------------------------------------------------- #
# Deterministic SRAM cost model
# --------------------------------------------------------------------- #
def sram_overhead_bytes(spec: DesignSpec, capacity_bytes: int,
                        num_cores: int = 16) -> int:
    """Estimated on-die SRAM the design spends beyond the data arrays.

    A coarse but deterministic cost model mirroring the paper's Table IV
    accounting: SRAM tag arrays (Footprint Cache), the MissMap (Loh-Hill),
    and the predictor tables (way predictor, MAP-I, footprint history +
    singleton).  Designs keeping tags in the stacked DRAM charge nothing
    for them -- that is exactly the overhead axis the paper trades on.
    """
    total = 0
    tag_params = spec.tags.params_dict()
    if spec.tags.kind == "sram-page":
        page_size = int(tag_params.get("page_size", 2048))
        # ~64 bits per page entry: tag, valid/dirty footprint bits, LRU.
        total += (capacity_bytes // page_size) * 8
    elif spec.tags.kind == "missmap":
        # The paper's MissMap: ~4 bytes of SRAM per 4KB-page entry covering
        # a working set several times the cache (2MB per GB cached).
        total += capacity_bytes // 512

    hit_params = spec.hit_predictor.params_dict()
    if spec.hit_predictor.kind == "way":
        index_bits = int(hit_params.get(
            "index_bits",
            way_predictor_index_bits_for_capacity(capacity_bytes)))
        associativity = int(tag_params.get("associativity", 32))
        way_bits = max(1, math.ceil(math.log2(max(2, associativity))))
        total += ((1 << index_bits) * way_bits + 7) // 8
    elif spec.hit_predictor.kind == "map-i":
        entries_per_core = int(hit_params.get("entries_per_core", 256))
        total += num_cores * entries_per_core * 2

    fetch_params = spec.fetch.params_dict()
    if spec.fetch.kind == "footprint":
        table_entries = int(fetch_params.get("table_entries",
                                             FOOTPRINT_TABLE_ENTRIES))
        singleton_entries = int(fetch_params.get("singleton_entries",
                                                 SINGLETON_TABLE_ENTRIES))
        # History entry: tag + footprint bitvector (~8B); singleton: ~8B.
        total += table_entries * 8 + singleton_entries * 8

    # Writeback and replacement state ride the tag entries themselves.
    return total


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DesignPoint:
    """One design's measured position in objective space."""

    name: str
    miss_ratio: ConfidenceInterval
    speedup: ConfidenceInterval
    sram_overhead_bytes: int
    #: Reference designs (ideal, no-cache) anchor the axes but are not
    #: admitted to the frontier -- ideal would trivially dominate it away.
    reference: bool = False
    meta: Dict[str, object] = field(default_factory=dict, compare=False)

    def objective(self, key: str) -> ConfidenceInterval:
        if key == "miss_ratio":
            return self.miss_ratio
        if key == "speedup":
            return self.speedup
        if key == "sram_overhead_bytes":
            return ConfidenceInterval(mean=float(self.sram_overhead_bytes),
                                      half_width=0.0)
        raise ValueError(f"unknown objective {key!r}")


def ci_dominates(a: DesignPoint, b: DesignPoint) -> bool:
    """True when ``a`` dominates ``b`` beyond measurement noise.

    For every objective, a's *pessimistic* bound must be at least as good
    as b's *optimistic* bound, and strictly better on at least one.  Any
    CI overlap on any objective therefore blocks dominance -- noise can
    demote a design only when the evidence is unambiguous.
    """
    strict = False
    for key, direction in OBJECTIVES:
        ia, ib = a.objective(key), b.objective(key)
        if direction == "min":
            worst_a, best_b = ia.upper, ib.lower
            if worst_a > best_b:
                return False
            if worst_a < best_b:
                strict = True
        else:
            worst_a, best_b = ia.lower, ib.upper
            if worst_a < best_b:
                return False
            if worst_a > best_b:
                strict = True
    return strict


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The non-dominated, non-reference points, deterministically ordered.

    Reference points neither join the frontier nor knock candidates off
    it; they exist for reporting (who beats no-cache?).  Output is sorted
    by (miss-ratio mean, name) so equal inputs produce equal artifacts.
    """
    pool = [p for p in points if not p.reference]
    frontier = [p for p in pool
                if not any(ci_dominates(q, p) for q in pool if q.name != p.name)]
    return sorted(frontier, key=lambda p: (p.miss_ratio.mean, p.name))


def dominated_baselines(point: DesignPoint,
                        baselines: Sequence[DesignPoint]) -> List[str]:
    """Names of the baseline points this design CI-dominates."""
    return sorted(b.name for b in baselines
                  if b.name != point.name and ci_dominates(point, b))


# --------------------------------------------------------------------- #
# Successive-halving rung prune
# --------------------------------------------------------------------- #
def prune_by_interval(entries: Sequence[Tuple[str, ConfidenceInterval]],
                      keep: int) -> Tuple[List[str], List[str]]:
    """Split rung entries into (survivors, pruned) on a minimized metric.

    Ranks by (mean, name); the cutoff is the ``keep``-th best entry's CI
    *upper* bound, and only designs whose CI *lower* bound exceeds it are
    pruned -- a design whose interval still overlaps the promotion zone
    survives to be measured at higher fidelity instead of being discarded
    on noise.  Deterministic: ties in mean break on name.
    """
    if keep < 1:
        raise ValueError("must keep at least one design per rung")
    ranked = sorted(entries, key=lambda item: (item[1].mean, item[0]))
    if len(ranked) <= keep:
        return [name for name, _ in ranked], []
    cutoff = max(interval.upper for _, interval in ranked[:keep])
    survivors, pruned = [], []
    for name, interval in ranked:
        if len(survivors) < keep or interval.lower <= cutoff:
            survivors.append(name)
        else:
            pruned.append(name)
    return survivors, pruned


__all__ = [
    "OBJECTIVES",
    "DesignPoint",
    "ci_dominates",
    "dominated_baselines",
    "interval_from_record",
    "pareto_frontier",
    "prune_by_interval",
    "sram_overhead_bytes",
]
